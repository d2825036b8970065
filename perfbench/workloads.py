"""The four benchmark workloads: seeded inputs, one op, and its output check.

Inputs come in rounds.  A round is a fixed ladder of input sizes (or
verbs) whose details and order are drawn from the seed, so every round
costs about the same on any seed while the inputs themselves differ.
Ops call braidcalc through module attributes looked up at call time, so
span wrappers installed by ``spans.install`` see every call.

``check`` raises ``CheckFailed`` for a wrong output and otherwise returns
the bytes that go into the workload's output digest.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

from spans import braidcalc_modules

HERE = os.path.dirname(os.path.abspath(__file__))


class CheckFailed(Exception):
    pass


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _inverse(letters: tuple) -> tuple:
    return tuple((i, -s) for i, s in reversed(letters))


def _reduced_words(max_length: int) -> list:
    """Every freely reduced 3-strand letter tuple up to ``max_length``."""
    gens = ((1, 1), (1, -1), (2, 1), (2, -1))
    words, frontier = [()], [()]
    for _ in range(max_length):
        frontier = [
            w + (g,) for w in frontier for g in gens if not w or w[-1] != (g[0], -g[1])
        ]
        words.extend(frontier)
    return words


class Workload:
    name = ""
    round_size = 0
    min_ops = 100  # a timed loop runs at least this many ops: 10 beyond p90
    tracer = None  # set during a traced run; cli_session passes it on to its children

    def __init__(self, root: str, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.m = braidcalc_modules()
        self._rng = random.Random(f"{self.name}:{seed}:inputs")

    def next_round(self) -> list:
        """The next round of the seed's input stream."""
        return self.make_round(self._rng)

    def warmup_inputs(self) -> list:
        return self.make_round(random.Random(f"{self.name}:{self.seed}:warmup"))

    def make_round(self, rng: random.Random) -> list:
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> bytes:
        raise NotImplementedError


class FamilySweep(Workload):
    """certify + report_to_json on admissible (p, q, r) from a box to 24."""

    name = "family_sweep"
    round_size = 16
    BOX = 24

    def __init__(self, root: str, seed: int) -> None:
        super().__init__(root, seed)
        triples = sorted(
            ((p, q, r) for p in range(2, self.BOX + 1) for q in range(2, self.BOX + 1)
             for r in range(2, self.BOX + 1) if q != r and p + 1 != q),
            key=lambda t: (sum(t), t),
        )
        # equal-count strata by p+q+r: one draw from each is a uniform
        # draw over the box whose cost per round hardly depends on the seed
        size = len(triples) // self.round_size
        self.strata = [triples[k * size:(k + 1) * size] for k in range(self.round_size)]

    def make_round(self, rng):
        out = [rng.choice(stratum) for stratum in self.strata]
        rng.shuffle(out)
        return out

    def op(self, inp):
        report = self.m["certify"].certify(self.m["certify"].FamilyParams(*inp))
        return report, self.m["certify"].report_to_json(report)

    def check(self, inp, out):
        report, text = out
        p, q, r = inp
        beta = 2 * p + 2 * q + 2 * r - 3
        _expect(report.verdict == self.m["certify"].VERDICT_CERTIFIED, f"{inp}: {report.verdict}")
        _expect(report.checks.beta_plus == beta == report.checks.beta_minus, f"{inp}: beta")
        _expect(json.loads(text)["verdict"] == report.verdict, f"{inp}: json verdict")
        return text.encode()


class ConjugacyAudit(Workload):
    """Oracle + normal form on pairs from the 1 457 reduced words of length <= 6."""

    name = "conjugacy_audit"
    round_size = 8
    PLANTED = 2  # per round: a quarter of the pairs are g w g^-1 with |g| <= 3

    def __init__(self, root: str, seed: int) -> None:
        super().__init__(root, seed)
        self.corpus = _reduced_words(6)
        self.conjugators = [g for g in self.corpus if 1 <= len(g) <= 3]

    def _pair(self, a: tuple, b: tuple, planted: bool):
        word = self.m["words"].BraidWord
        return word(3, a), word(3, b), planted

    def make_round(self, rng):
        out = []
        for k in range(self.round_size):
            w = rng.choice(self.corpus)
            if k < self.PLANTED:
                g = rng.choice(self.conjugators)
                out.append(self._pair(w, g + w + _inverse(g), True))
            else:
                out.append(self._pair(w, rng.choice(self.corpus), False))
        rng.shuffle(out)
        return out

    def warmup_inputs(self):
        # touch every corpus word once so the battery cache is in its
        # steady state, then one ordinary round
        rng = random.Random(f"{self.name}:{self.seed}:warmup")
        partners = list(self.corpus)
        rng.shuffle(partners)
        pairs = [self._pair(a, b, False) for a, b in zip(self.corpus, partners)]
        return pairs + self.make_round(rng)

    def op(self, inp):
        w1, w2, _ = inp
        b3 = self.m["b3"]
        return b3.brute_force_conjugacy_oracle(w1, w2), b3.conjugate_in_B3(w1, w2)

    def check(self, inp, out):
        outcome, verdict = out
        b3 = self.m["b3"]
        w1, w2, planted = inp
        label = f"{w1.letters} ~ {w2.letters}"
        _expect(not isinstance(outcome, b3.Unresolved), f"{label}: unresolved")
        _expect(isinstance(outcome, b3.Conjugate) == verdict, f"{label}: oracle disagrees")
        _expect(verdict or not planted, f"{label}: planted pair not conjugate")
        detail = outcome.conjugator.letters if isinstance(outcome, b3.Conjugate) else outcome.witness
        return f"{type(outcome).__name__}:{detail}:{verdict}".encode()


class MultistrandInvariants(Workload):
    """Round trip, components, linking and Alexander on 4-8 strand words."""

    name = "multistrand_invariants"
    STRANDS = (4, 5, 6, 7, 8)
    # 25 cells (strands x length band) per round: with an odd cell count
    # the median and the 90th percentile fall inside one cell's spread of
    # costs, not on the gap between two cells
    LENGTHS = ((50, 99), (100, 149), (150, 199), (200, 249), (250, 300))
    SLOTS = 8  # each length band is cut into 8 slots, visited once per 8 rounds
    round_size = len(STRANDS) * len(LENGTHS)
    # ops cost 5-600 ms by size and word shape; 20 s give ~150 of them,
    # too few for percentiles that repeat within a few per cent
    min_ops = 250

    def __init__(self, root: str, seed: int) -> None:
        super().__init__(root, seed)
        # systematic draw: every cell (strands, band) takes its slots in a
        # seeded order, so a run's length mix hardly depends on the seed
        self._slots = {}
        for n in self.STRANDS:
            for band in self.LENGTHS:
                order = list(range(self.SLOTS))
                self._rng.shuffle(order)
                self._slots[n, band] = order
        self._rounds = 0

    def _word(self, rng, n: int, length: int):
        # syllables of one or two equal letters; neighbours differ in index
        letters: list = []
        index = 0
        while len(letters) < length:
            index = rng.choice([i for i in range(1, n) if i != index])
            letters.extend([(index, rng.choice((1, -1)))] * rng.choice((1, 1, 1, 2)))
        return self.m["words"].BraidWord(n, tuple(letters[:length]))

    def make_round(self, rng):
        out = []
        for (n, (lo, hi)), order in self._slots.items():
            slot = order[self._rounds % self.SLOTS]
            length = lo + int((slot + rng.random()) * (hi - lo + 1) / self.SLOTS)
            out.append(self._word(rng, n, length))
        self._rounds += 1
        rng.shuffle(out)
        return out

    def warmup_inputs(self):
        rng = random.Random(f"{self.name}:{self.seed}:warmup")
        return [self._word(rng, n, 50) for n in self.STRANDS]

    def op(self, word):
        words, links = self.m["words"], self.m["links"]
        text = words.format_word(word)
        return (
            text,
            words.parse_word(text),
            links.components(word),
            links.linking_matrix(word),
            links.alexander_polynomial(word),
        )

    def check(self, word, out):
        text, back, comps, lk, delta = out
        _expect(back == word, f"round trip changed {text!r}")
        beta = sum(s for _, s in word.letters) - word.strands
        _expect(beta == sum(c.bennequin for c in comps) + 2 * lk.total(), f"{text}: beta split")
        coeffs = [c for _, c in delta.pairs]
        dense = {p: c for p, c in delta.pairs}
        if coeffs:
            lo, hi = delta.pairs[0][0], delta.pairs[-1][0]
            full = [dense.get(p, 0) for p in range(lo, hi + 1)]
            _expect(full == full[::-1] or full == [-c for c in full[::-1]], f"{text}: not palindromic")
        at_one = sum(coeffs)
        _expect(at_one in ((1, -1) if len(comps) == 1 else (0,)), f"{text}: delta(1) = {at_one}")
        table = [(c.members, c.self_writhe) for c in comps]
        return f"{text}|{table}|{lk.entries}|{delta.pairs}".encode()


class CliSession(Workload):
    """One CLI subprocess per op over a seeded mix of verbs."""

    name = "cli_session"
    round_size = 10
    TOWERS = 3  # valid and invalid tower files per seed
    TOWER_MOVES = 300

    def __init__(self, root: str, seed: int) -> None:
        super().__init__(root, seed)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.tower_dir = os.path.join(root, ".bench_out", f"{self.name}-{seed}")
        os.makedirs(self.tower_dir, exist_ok=True)
        rng = random.Random(f"{self.name}:{seed}:towers")
        self.towers = {}
        for valid in (True, False):
            for k in range(self.TOWERS):
                path = os.path.join(self.tower_dir, f"tower-{'ok' if valid else 'bad'}-{k}.json")
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(_tower_document(rng, self.TOWER_MOVES, valid), handle, indent=1)
                self.towers.setdefault(valid, []).append(os.path.relpath(path, root))
        self.corpus = _reduced_words(4)

    def _word3(self, rng) -> str:
        return _format(3, rng.choice(self.corpus[1:]))

    def make_round(self, rng):
        def triple(box):
            return [rng.randint(2, box) for _ in range(3)]

        p, q, r = triple(10)
        while q == r or p + 1 == q:
            p, q, r = triple(10)
        bad = triple(10)
        bad[2] = bad[1]  # q = r is inadmissible
        w = rng.choice(self.corpus[1:])
        g = rng.choice(self.corpus[1:21])  # the 20 shortest non-empty words, |g| <= 3
        n = rng.randint(4, 6)
        multi = _format(n, tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(rng.randint(20, 40))))
        powers = [str(rng.choice((-1, 1)) * rng.randint(1, 6)) for _ in range(3)]
        ops = [
            (["certify", "--p", str(p), "--q", str(q), "--r", str(r)], 0, False),
            (["certify", "--p", str(bad[0]), "--q", str(bad[1]), "--r", str(bad[2]), "--json"], 1, True),
            (["conjugate", _format(3, w), _format(3, g + w + _inverse(g))], 0, False),
            (["conjugate", self._word3(rng), self._word3(rng), "--format", "json"], 0, True),
            (["classify", self._word3(rng), "--format", "json"], 0, True),
            (["components", multi], 0, False),
            (["invariants", multi, "--format", "json"], 0, True),
            (["flype", "--P", f"s1^{powers[0]}", "--R", f"s1^{powers[1]}", "--Q", f"s1^{powers[2]}"], 0, False),
            (["tower-validate", rng.choice(self.towers[True])], 0, False),
            (["tower-validate", rng.choice(self.towers[False]), "--format", "json"], 1, True),
        ]
        rng.shuffle(ops)
        return ops

    def warmup_inputs(self):
        return self.make_round(random.Random(f"{self.name}:{self.seed}:warmup"))[:3]

    def op(self, inp):
        argv, _, _ = inp
        if self.tracer is None:
            return run_cli(self.root, self.env, [sys.executable, "-m", "braidcalc.cli"] + argv)
        record = os.path.join(self.tower_dir, "spans.json")
        out = run_cli(self.root, self.env, [sys.executable, LAUNCHER, record] + argv)
        with open(record, encoding="utf-8") as handle:
            child = json.load(handle)
        os.remove(record)
        self.tracer.adopt(child["spans"], self.tracer.op)
        for key, value in child["counters"].items():
            self.tracer.counters[key] += value
        return out

    def check(self, inp, out):
        argv, expected, is_json = inp
        code, stdout = out
        _expect(code == expected, f"{argv}: exit {code}, expected {expected}")
        _expect(bool(stdout.strip()), f"{argv}: empty output")
        if is_json:
            json.loads(stdout)
        return f"{code}\n".encode() + stdout


LAUNCHER = os.path.join(HERE, "launcher.py")


def run_cli(root: str, env: dict, command: list) -> tuple:
    done = subprocess.run(command, cwd=root, env=env, capture_output=True, timeout=120)
    return done.returncode, done.stdout


def _format(strands: int, letters: tuple) -> str:
    """Word text with an explicit strand count, written without braidcalc."""
    return " ".join([f"n={strands}"] + [f"s{i}" if s > 0 else f"s{i}^-1" for i, s in letters])


def _reduce(letters: list) -> list:
    stack: list = []
    for letter in letters:
        if stack and stack[-1] == (letter[0], -letter[1]):
            stack.pop()
        else:
            stack.append(letter)
    return stack


def _tower_document(rng: random.Random, moves: int, valid: bool) -> dict:
    """A transversal tower of stabilize / conjugate / destabilize moves.

    Every move applies by construction: stabilizations are undone in
    last-in first-out order, and conjugators are kept from touching a
    stabilized strand twice (they are either a letter on the first two
    generators while the word is short, or the inverse of the word's
    first letter, which rotates it).  An invalid tower carries one
    negative stabilization, which transversal mode forbids.
    """
    initial = rng.choice(_reduced_words(4)[17:])
    state = list(initial)
    strands, pending, out = 3, 0, []
    bad_from = -1 if valid else rng.randrange(moves // 2)
    while len(out) < moves or pending:
        choice = rng.random()
        negative = 0 <= bad_from <= len(out)
        if len(out) >= moves or (pending and choice < 0.3):
            sign = next(s for i, s in state if i == strands - 1)
            at = state.index((strands - 1, sign))
            state = state[at + 1:] + state[:at]
            strands -= 1
            pending -= 1
            out.append({"kind": "destabilize", "sign": sign})
        elif (choice < 0.55 or negative) and strands < 6:
            sign = -1 if negative else 1
            bad_from = -1 if negative else bad_from
            state.append((strands, sign))
            strands += 1
            pending += 1
            out.append({"kind": "stabilize", "sign": sign})
        else:
            if len(state) < 12:
                g = [(rng.randint(1, 2), rng.choice((1, -1)))]
            else:
                g = [(state[0][0], -state[0][1])]
            state = _reduce(g + state + list(_inverse(tuple(g))))
            out.append({"kind": "conjugate", "conjugator": _format(strands, tuple(g))})
    return {"mode": "transversal", "initial_word": _format(3, initial), "moves": out}


WORKLOADS = {w.name: w for w in (FamilySweep, ConjugacyAudit, MultistrandInvariants, CliSession)}
