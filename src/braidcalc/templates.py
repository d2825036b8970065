"""Block-strand move templates and their braid-word instantiations.

A template is a pair of skeletons sharing a set of named blocks.  Filling
every block with a concrete braid word produces two closed-braid words
that present the same oriented link; the port bookkeeping then matches
closure components of one side with closure components of the other.
An assignment is a plain mapping from block id to its ``BraidWord``.
Every failure, from a malformed skeleton to ports that do not glue, is a
``TemplateError``.
"""

from __future__ import annotations

import functools
import json
from typing import Dict, List, Mapping, Tuple, Union

from . import words
from .links import ComponentInvariants, components
from .words import BraidWord, _value_class, parse_word

PORT_FIXED = "fixed"
PORT_ROTATED = "rotated"


class TemplateError(ValueError):
    """A template, or its instantiation, is malformed."""


@_value_class
class Crossing:
    """One fixed crossing between adjacent strands: index i, sign +-1."""

    index: int
    sign: int

    def _validate(self) -> None:
        if self.index < 1:
            raise TemplateError(f"crossing index must be >= 1, got {self.index}")
        if self.sign not in (1, -1):
            raise TemplateError(f"crossing sign must be +-1, got {self.sign}")


@_value_class
class BlockSlot:
    """A hole for a braiding block covering `width` adjacent strands."""

    block_id: str
    start_position: int
    width: int

    def _validate(self) -> None:
        if not self.block_id:
            raise TemplateError("block_id must be a nonempty string")
        if self.start_position < 1:
            raise TemplateError("start_position must be >= 1")
        # block boundaries must meet at least two strands
        if self.width < 2:
            raise TemplateError(f"block width must be >= 2, got {self.width}")


SkeletonItem = Union[Crossing, BlockSlot]


@_value_class
class BlockSkeleton:
    """An ordered word-with-holes on `strands` strands."""

    strands: int
    items: Tuple[SkeletonItem, ...]

    def _validate(self) -> None:
        if self.strands < 1:
            raise TemplateError(f"strands must be >= 1, got {self.strands}")
        seen = set()
        for item in self.items:
            if isinstance(item, Crossing):
                if item.index > self.strands - 1:
                    raise TemplateError(
                        f"crossing index {item.index} does not fit in {self.strands} strands"
                    )
            elif isinstance(item, BlockSlot):
                if item.start_position + item.width - 1 > self.strands:
                    raise TemplateError(
                        f"block {item.block_id!r} does not fit in {self.strands} strands"
                    )
                if item.block_id in seen:
                    raise TemplateError(f"duplicate block id {item.block_id!r}")
                seen.add(item.block_id)
            else:
                raise TemplateError(f"unknown skeleton item {item!r}")

    def block_slots(self) -> Tuple[BlockSlot, ...]:
        return tuple(i for i in self.items if isinstance(i, BlockSlot))


@_value_class
class Template:
    """A plus/minus skeleton pair over one block set, plus the port map.

    `port_map` records, per block, how the block's boundary ports on the
    plus side correspond to those on the minus side: "fixed" keeps each
    port in place, "rotated" turns the block half a turn about its
    vertical axis, so the j-th port meets the (width+1-j)-th port at the
    same height.
    """

    plus: BlockSkeleton
    minus: BlockSkeleton
    port_map: Tuple[Tuple[str, str], ...]

    def _validate(self) -> None:
        # equal {block_id: width} maps mean equal block sets as well
        widths = self.block_widths()
        if widths != {s.block_id: s.width for s in self.minus.block_slots()}:
            raise TemplateError("plus and minus sides need the same blocks with the same widths")
        named = set()
        for bid, mode in self.port_map:
            if bid in named:
                raise TemplateError(f"port_map names block {bid!r} more than once")
            named.add(bid)
            if mode not in (PORT_FIXED, PORT_ROTATED):
                raise TemplateError(f"unknown port map mode {mode!r} for block {bid!r}")
        if named != widths.keys():
            raise TemplateError("port_map must cover exactly the template's blocks")

    def block_widths(self) -> Dict[str, int]:
        return {s.block_id: s.width for s in self.plus.block_slots()}


def _block_word(a: Mapping[str, BraidWord], slot: BlockSlot) -> BraidWord:
    if slot.block_id not in a:
        raise TemplateError(f"no braiding assigned to block {slot.block_id!r}")
    word = a[slot.block_id]
    if not isinstance(word, BraidWord):
        raise TemplateError(f"assignment for {slot.block_id!r} is not a BraidWord")
    if word.strands != slot.width:
        raise TemplateError(
            f"block {slot.block_id!r} has width {slot.width}, "
            f"assigned word has {word.strands} strands"
        )
    return word


def instantiate(sk: BlockSkeleton, a: Mapping[str, BraidWord]) -> BraidWord:
    """Fill every block of `sk` with its assigned word.

    Block letters have their generator indices shifted by the block's
    start position minus one; fixed crossings are kept in order.  A word
    of more than ``words.MAX_LETTERS`` letters is refused before any
    letter is built.

    The letters are not checked again: ``BlockSkeleton`` checked that
    every crossing and every slot fits its strands, and ``_block_word``
    that each block's word has the slot's width, so a shifted block
    letter stays inside its slot.
    """
    fills = {slot.block_id: _block_word(a, slot) for slot in sk.block_slots()}
    length = len(sk.items) - len(fills) + sum(map(len, fills.values()))
    if length > words.MAX_LETTERS:
        raise TemplateError(
            f"instantiating gives {length} letters, more than {words.MAX_LETTERS}"
        )
    letters: List[Tuple[int, int]] = []
    for item in sk.items:
        if isinstance(item, Crossing):
            letters.append((item.index, item.sign))
            continue
        # one shifted letter per distinct letter, shared by every position
        shift = item.start_position - 1
        block = fills[item.block_id].letters
        table = {letter: (letter[0] + shift, letter[1]) for letter in set(block)}
        letters.extend(map(table.__getitem__, block))
    return words._derived(sk.strands, tuple(letters))


def _check_weight(kind: str, weight: int) -> None:
    """A weight-w template has w + 2 strands, checked before any is built."""
    if weight < 1:
        raise TemplateError(f"{kind} weight must be >= 1")
    if weight + 2 > words.MAX_STRANDS:
        raise TemplateError(
            f"{kind} weight {weight} needs more than {words.MAX_STRANDS} strands"
        )


def destabilize_template(sign: int, weight: int = 1) -> Template:
    """Remove a strand that crosses a weight-w cable exactly once."""
    if sign not in (1, -1):
        raise TemplateError(f"destabilization sign must be +-1, got {sign}")
    _check_weight("destabilization", weight)
    k = weight + 1
    plus = BlockSkeleton(k + 1, (BlockSlot("P", 1, k), Crossing(k, sign)))
    minus = BlockSkeleton(k, (BlockSlot("P", 1, k),))
    return Template(plus, minus, (("P", PORT_FIXED),))


def exchange_template(weight: int = 1) -> Template:
    """Carry a unit strand across a weight-w cable and back."""
    _check_weight("exchange", weight)
    w = weight

    def side(direction: int) -> BlockSkeleton:
        # unit strand leaves position w+2, crosses the cable down to
        # position 2, passes through Q, and crosses back up
        down = tuple(Crossing(i, direction) for i in range(w + 1, 1, -1))
        back = tuple(Crossing(i, -direction) for i in range(2, w + 2))
        items = (BlockSlot("P", 1, w + 1),) + down + (BlockSlot("Q", 1, 2),) + back
        return BlockSkeleton(w + 2, items)

    return Template(side(1), side(-1), (("P", PORT_FIXED), ("Q", PORT_FIXED)))


@functools.cache
def flype_template(sign: int) -> Template:
    """Turn the middle tangle half a turn past one crossing.

    Each sign's template is built once; a bad sign raises on every call.
    """
    if sign not in (1, -1):
        raise TemplateError(f"flype sign must be +-1, got {sign}")
    plus = BlockSkeleton(
        3,
        (BlockSlot("P", 1, 2), BlockSlot("R", 2, 2), BlockSlot("Q", 1, 2), Crossing(2, sign)),
    )
    minus = BlockSkeleton(
        3,
        (BlockSlot("P", 1, 2), Crossing(2, sign), BlockSlot("Q", 1, 2), BlockSlot("R", 2, 2)),
    )
    # the flype carries the middle block R turned half a turn
    port_map = (("P", PORT_FIXED), ("Q", PORT_FIXED), ("R", PORT_ROTATED))
    return Template(plus, minus, port_map)


# the built-in templates by their name in a JSON description
CONSTRUCTORS = {
    "destabilize": destabilize_template,
    "exchange": exchange_template,
    "flype": flype_template,
}


def _port_components(
    sk: BlockSkeleton, a: Mapping[str, BraidWord]
) -> Tuple[List[ComponentInvariants], Dict[Tuple[str, str, int], int]]:
    """The closure components of `sk` filled by `a`, and the component
    through each block port.

    Ports are (block_id, "in"|"out", column); component ids are the
    smallest strand position on the component, the first member that
    ``links.components`` lists.
    """
    comps = components(instantiate(sk, a))
    comp_of = {member: comp.members[0] for comp in comps for member in comp.members}
    # occupants[p] = starting position of the strand currently at position p
    occupants = list(range(sk.strands + 1))
    ports: Dict[Tuple[str, str, int], int] = {}
    for item in sk.items:
        if isinstance(item, Crossing):
            i = item.index
            occupants[i], occupants[i + 1] = occupants[i + 1], occupants[i]
            continue
        start, width = item.start_position, item.width
        for j in range(1, width + 1):
            ports[(item.block_id, "in", j)] = comp_of[occupants[start + j - 1]]
        for index, _ in a[item.block_id].letters:
            p = start - 1 + index
            occupants[p], occupants[p + 1] = occupants[p + 1], occupants[p]
        for j in range(1, width + 1):
            ports[(item.block_id, "out", j)] = comp_of[occupants[start + j - 1]]
    return comps, ports


def _correspondence(
    t: Template, a: Mapping[str, BraidWord]
) -> Tuple[Dict[int, int], List[ComponentInvariants], List[ComponentInvariants]]:
    comps_plus, ports_plus = _port_components(t.plus, a)
    comps_minus, ports_minus = _port_components(t.minus, a)
    widths = t.block_widths()
    forward: Dict[int, int] = {}
    backward: Dict[int, int] = {}
    for block_id, mode in t.port_map:
        width = widths[block_id]
        for side in ("in", "out"):
            for j in range(1, width + 1):
                if mode == PORT_FIXED:
                    partner = (block_id, side, j)
                else:
                    partner = (block_id, side, width + 1 - j)
                cp = ports_plus[(block_id, side, j)]
                cm = ports_minus[partner]
                if forward.setdefault(cp, cm) != cm or backward.setdefault(cm, cp) != cp:
                    raise TemplateError(
                        f"port ({block_id}, {side}, {j}) pairs component {cp} "
                        f"with {cm}, conflicting with earlier ports"
                    )
    plus_ids = {comp.members[0] for comp in comps_plus}
    minus_ids = {comp.members[0] for comp in comps_minus}
    if set(forward) != plus_ids or set(backward) != minus_ids:
        raise TemplateError("a closure component touches no block port")
    return forward, comps_plus, comps_minus


def component_correspondence(t: Template, a: Mapping[str, BraidWord]) -> Dict[int, int]:
    """Match closure components of the plus side with the minus side.

    Each block port marks one component on each side; the pairings from
    all ports must agree and must glue into a bijection, which is
    returned as {plus component id: minus component id}.
    """
    return _correspondence(t, a)[0]


def per_component_beta_delta(
    t: Template, a: Mapping[str, BraidWord]
) -> List[Tuple[int, int, int]]:
    """Table of (plus component id, self-linking plus, self-linking minus).

    Rows are sorted by plus-side component id; a row whose two values
    differ exhibits a component whose self-linking number the move does
    not preserve.
    """
    correspondence, comps_plus, comps_minus = _correspondence(t, a)
    beta_plus = {c.members[0]: c.bennequin for c in comps_plus}
    beta_minus = {c.members[0]: c.bennequin for c in comps_minus}
    return [
        (cid, beta_plus[cid], beta_minus[correspondence[cid]])
        for cid in sorted(beta_plus)
    ]


def parse_template_description(text: str) -> Tuple[Template, Dict[str, BraidWord]]:
    """Parse a JSON description into (template, assignment).

    The document is an object with a "kind" name, a "params" object of
    integers and an "assignment" object mapping block ids to word text.
    """
    try:
        payload = json.loads(text)
    except RecursionError:
        raise TemplateError("JSON nested too deeply") from None
    if not isinstance(payload, dict):
        raise TemplateError("a template description must be a JSON object")
    name = payload.get("kind")
    if not isinstance(name, str) or name not in CONSTRUCTORS:
        raise TemplateError(f"unknown template kind {name!r}")
    build = CONSTRUCTORS[name]
    params = payload.get("params", {})
    # type(v) is int: JSON true and false decode to bool, a subclass of int
    if not isinstance(params, dict) or not all(type(v) is int for v in params.values()):
        raise TemplateError(f"params for {name} must be integers")
    # check the names now, in the words of inspect.Signature.bind; the sign
    # and weight checks run last, in the constructor
    fn = getattr(build, "__wrapped__", build)
    names = fn.__code__.co_varnames[: fn.__code__.co_argcount]
    required = names[: len(names) - len(fn.__defaults__ or ())]
    missing = [p for p in required if p not in params]
    unknown = [p for p in params if p not in names]
    if missing or unknown:
        problem = (
            f"missing a required argument: {missing[0]!r}" if missing
            else f"got an unexpected keyword argument {unknown[0]!r}"
        )
        raise TemplateError(f"bad params for {name}: {problem}")
    texts = payload.get("assignment", {})
    if not isinstance(texts, dict) or not all(isinstance(w, str) for w in texts.values()):
        raise TemplateError("assignment must map block ids to word strings")
    assignment = {bid: parse_word(word) for bid, word in texts.items()}
    return build(**params), assignment
