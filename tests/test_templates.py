import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidcalc.words as words
from braidcalc.certify import FamilyParams, certify
from braidcalc.links import alexander_polynomial, components
from braidcalc.templates import (
    BlockSkeleton,
    BlockSlot,
    CONSTRUCTORS,
    Crossing,
    Template,
    TemplateError,
    component_correspondence,
    destabilize_template,
    exchange_template,
    flype_template,
    instantiate,
    parse_template_description,
    per_component_beta_delta,
)
from braidcalc.words import MAX_STRANDS, BraidWord, format_word, parse_word, sigma_power
from conftest import reference_instantiate

FLYPE_NEG = flype_template(-1)

LINK_ASSIGNMENT = {"P": parse_word("s1^3"), "R": parse_word("s1^4"), "Q": parse_word("s1^-5")}
FAMILY_ASSIGNMENT = {"P": parse_word("s1^5"), "R": parse_word("s1^6"), "Q": parse_word("s1^8")}


def test_flype_instantiation_frozen():
    assert format_word(instantiate(FLYPE_NEG.plus, FAMILY_ASSIGNMENT)) == "s1^5 s2^6 s1^8 s2^-1"
    assert format_word(instantiate(FLYPE_NEG.minus, FAMILY_ASSIGNMENT)) == "s1^5 s2^-1 s1^8 s2^6"
    assert format_word(instantiate(FLYPE_NEG.plus, LINK_ASSIGNMENT)) == "s1^3 s2^4 s1^-5 s2^-1"
    assert format_word(instantiate(FLYPE_NEG.minus, LINK_ASSIGNMENT)) == "s1^3 s2^-1 s1^-5 s2^4"


def test_empty_assignment_keeps_fixed_crossings_only():
    empty = {bid: BraidWord(2, ()) for bid in ("P", "Q", "R")}
    assert instantiate(FLYPE_NEG.plus, empty) == BraidWord(3, ((2, -1),))
    assert instantiate(FLYPE_NEG.minus, empty) == BraidWord(3, ((2, -1),))


def test_instantiate_matches_letter_by_letter_reference():
    rng = random.Random(22)
    templates = [flype_template(sign) for sign in (1, -1)]
    templates += [exchange_template(weight) for weight in (1, 2, 3)]
    templates += [destabilize_template(sign, weight) for sign in (1, -1) for weight in (1, 2, 3)]
    for template in templates:
        for _ in range(20):
            assignment = {}
            for bid, width in template.block_widths().items():
                letters = []
                for _ in range(rng.randint(0, 4)):
                    power = rng.choice((-3, -1, 1, 2, 5))
                    letters += [(rng.randint(1, width - 1), 1 if power > 0 else -1)] * abs(power)
                assignment[bid] = BraidWord(width, tuple(letters))
            for sk in (template.plus, template.minus):
                word = instantiate(sk, assignment)
                assert word == reference_instantiate(sk, assignment)
                # the block letters are shared: one object per distinct letter
                shared = len(sk.items) + sum(len(set(w.letters)) for w in assignment.values())
                assert len(set(map(id, word.letters))) <= shared


def test_derived_words_equal_checked_construction():
    """``instantiate`` and ``sigma_power`` skip the letter scan; on seeded
    inputs their words equal the same letters built through the checked
    constructor, which raises on a letter out of range."""
    rng = random.Random(25)
    templates = [flype_template(sign) for sign in (1, -1)]
    templates += [exchange_template(weight) for weight in (1, 2, 4)]
    templates += [destabilize_template(sign, weight) for sign in (1, -1) for weight in (1, 3)]
    derived = []
    for template in templates:
        for _ in range(20):
            assignment = {
                bid: BraidWord(width, tuple(
                    (rng.randint(1, width - 1), rng.choice((1, -1))) for _ in range(rng.randint(0, 12))
                ))
                for bid, width in template.block_widths().items()
            }
            derived += [instantiate(sk, assignment) for sk in (template.plus, template.minus)]
    for _ in range(200):
        strands = rng.randint(2, 9)
        derived.append(sigma_power(strands, rng.randint(1, strands - 1), rng.randint(-40, 40)))
    for word in derived:
        assert word == BraidWord(word.strands, word.letters)


def test_flype_template_is_built_once():
    assert flype_template(-1) is flype_template(-1)
    assert flype_template(1) is not flype_template(-1)
    for _ in range(2):
        with pytest.raises(TemplateError, match="flype sign must be"):
            flype_template(2)
    # descriptions read the parameter names through the cache wrapper
    with pytest.raises(TemplateError, match="bad params for flype: "):
        parse_template_description('{"kind": "flype", "params": {"sign": -1, "turns": 2}}')


@pytest.mark.parametrize(
    "kind, params, problem",
    [
        ("flype", {"turns": 2}, "missing a required argument: 'sign'"),
        ("flype", {"sign": 3, "w": 1}, "got an unexpected keyword argument 'w'"),
        ("destabilize", {"weight": 2, "x": 1}, "missing a required argument: 'sign'"),
        ("exchange", {"weight": 1, "x": 1, "y": 2}, "got an unexpected keyword argument 'x'"),
    ],
)
def test_description_param_names_are_checked_first(kind, params, problem):
    # in the words of inspect.Signature.bind, before the assignment and
    # before the constructor's own sign and weight checks
    text = json.dumps({"kind": kind, "params": params, "assignment": 5})
    with pytest.raises(TemplateError) as excinfo:
        parse_template_description(text)
    assert str(excinfo.value) == f"bad params for {kind}: {problem}"


def test_instantiate_errors():
    with pytest.raises(TemplateError, match="no braiding assigned to block 'R'"):
        instantiate(FLYPE_NEG.plus, {"P": parse_word("s1")})
    wrong_width = {"P": parse_word("n=3 s1 s2"), "Q": parse_word("s1"), "R": parse_word("s1")}
    with pytest.raises(TemplateError, match="block 'P' has width 2, assigned word has 3 strands"):
        instantiate(FLYPE_NEG.plus, wrong_width)
    with pytest.raises(TemplateError, match="assignment for 'P' is not a BraidWord"):
        instantiate(FLYPE_NEG.plus, dict(LINK_ASSIGNMENT, P="s1^3"))


def test_instantiate_letter_cap(monkeypatch):
    """A filled template of more than MAX_LETTERS letters is refused before
    it is built, and so is a family word that certify would build."""
    monkeypatch.setattr(words, "MAX_LETTERS", 10)
    # three blocks of three letters and one fixed crossing
    a = {bid: parse_word("s1^3") for bid in ("P", "Q", "R")}
    assert len(instantiate(FLYPE_NEG.plus, a)) == 10
    a["Q"] = parse_word("s1^4")
    with pytest.raises(TemplateError, match="instantiating gives 11 letters, more than 10"):
        instantiate(FLYPE_NEG.minus, a)
    with pytest.raises(ValueError, match="instantiating gives 20 letters, more than 10"):
        certify(FamilyParams(2, 3, 4))


def test_template_strand_cap(monkeypatch):
    """The weight check reads words.MAX_STRANDS when it runs."""
    monkeypatch.setattr(words, "MAX_STRANDS", 10)
    assert exchange_template(weight=8).plus.strands == 10
    with pytest.raises(TemplateError, match="exchange weight 9 needs more than 10 strands"):
        exchange_template(weight=9)


def test_destabilize_template_shapes():
    t = destabilize_template(1)
    a = {"P": parse_word("s1^3")}
    assert instantiate(t.plus, a) == parse_word("n=3 s1^3 s2")
    assert instantiate(t.minus, a) == parse_word("s1^3")

    # weight 2: the cable block spans three strands, the loop a fourth
    t2 = destabilize_template(-1, weight=2)
    a2 = {"P": parse_word("n=3 s1 s2^2")}
    assert instantiate(t2.plus, a2) == parse_word("n=4 s1 s2^2 s3^-1")
    assert instantiate(t2.minus, a2) == parse_word("n=3 s1 s2^2")


def test_exchange_template_weight_one_matches_word_form():
    t = exchange_template(1)
    a = {"P": parse_word("s1^2"), "Q": parse_word("s1^-3")}
    assert instantiate(t.plus, a) == parse_word("n=3 s1^2 s2 s1^-3 s2^-1")
    assert instantiate(t.minus, a) == parse_word("n=3 s1^2 s2^-1 s1^-3 s2")


def test_exchange_template_weight_two_bands():
    t = exchange_template(2)
    a = {"P": parse_word("n=3 s1 s2"), "Q": parse_word("s1^2")}
    assert instantiate(t.plus, a) == parse_word("n=4 s1 s2 s3 s2 s1^2 s2^-1 s3^-1")
    assert instantiate(t.minus, a) == parse_word("n=4 s1 s2 s3^-1 s2^-1 s1^2 s2 s3")


def test_skeleton_validation():
    with pytest.raises(TemplateError):
        BlockSkeleton(3, (Crossing(3, 1),))
    with pytest.raises(TemplateError):
        BlockSkeleton(3, (BlockSlot("P", 3, 2),))
    with pytest.raises(TemplateError):
        BlockSkeleton(4, (BlockSlot("P", 1, 2), BlockSlot("P", 3, 2)))
    with pytest.raises(TemplateError):
        BlockSlot("P", 1, 1)
    with pytest.raises(TemplateError):
        Template(
            BlockSkeleton(3, (BlockSlot("P", 1, 2),)),
            BlockSkeleton(3, (BlockSlot("Q", 1, 2),)),
            (("P", "fixed"),),
        )
    with pytest.raises(TemplateError, match="exchange weight must be >= 1"):
        exchange_template(0)
    # a weight-w template has w + 2 strands, refused before any is built
    assert exchange_template(MAX_STRANDS - 2).plus.strands == MAX_STRANDS
    too_wide = f"exchange weight {MAX_STRANDS - 1} needs more"
    with pytest.raises(TemplateError, match=too_wide):
        exchange_template(MAX_STRANDS - 1)
    with pytest.raises(TemplateError, match="destabilization weight 10"):
        destabilize_template(1, 10**9)
    with pytest.raises(TemplateError):
        destabilize_template(2)


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: Crossing(0, 1), "crossing index must be >= 1, got 0", id="index"),
        pytest.param(lambda: Crossing(1, 2), "crossing sign must be +-1, got 2", id="sign"),
        pytest.param(
            lambda: BlockSlot("", 1, 2), "block_id must be a nonempty string", id="block-id"
        ),
        pytest.param(lambda: BlockSlot("P", 0, 2), "start_position must be >= 1", id="start"),
        pytest.param(lambda: BlockSkeleton(0, ()), "strands must be >= 1, got 0", id="strands"),
        pytest.param(
            lambda: BlockSkeleton(3, ("x",)), "unknown skeleton item 'x'", id="skeleton-item"
        ),
        pytest.param(
            lambda: Template(FLYPE_NEG.plus, FLYPE_NEG.minus, (("P", "fixed"), ("Q", "fixed"))),
            "port_map must cover exactly the template's blocks",
            id="port-map-misses-a-block",
        ),
        pytest.param(
            lambda: Template(
                FLYPE_NEG.plus, FLYPE_NEG.minus, (("P", "fixed"), ("Q", "fixed"), ("R", "twisted"))
            ),
            "unknown port map mode 'twisted' for block 'R'",
            id="port-map-mode",
        ),
        pytest.param(
            lambda: Template(
                FLYPE_NEG.plus,
                FLYPE_NEG.minus,
                (("P", "fixed"), ("P", "rotated"), ("Q", "fixed"), ("R", "rotated")),
            ),
            "port_map names block 'P' more than once",
            id="port-map-block-twice",
        ),
        pytest.param(
            lambda: Template(
                FLYPE_NEG.plus,
                FLYPE_NEG.minus,
                (("P", "fixed"), ("Q", "fixed"), ("Q", "fixed"), ("R", "rotated")),
            ),
            "port_map names block 'Q' more than once",
            id="port-map-block-twice-same-mode",
        ),
        pytest.param(
            lambda: Template(
                BlockSkeleton(3, (BlockSlot("P", 1, 2),)),
                BlockSkeleton(3, (BlockSlot("P", 1, 3),)),
                (("P", "fixed"),),
            ),
            "plus and minus sides need the same blocks with the same widths",
            id="block-widths",
        ),
        pytest.param(
            # the third strand touches no block port
            lambda: component_correspondence(
                Template(
                    BlockSkeleton(3, (BlockSlot("P", 1, 2),)),
                    BlockSkeleton(3, (BlockSlot("P", 1, 2),)),
                    (("P", "fixed"),),
                ),
                {"P": parse_word("s1")},
            ),
            "a closure component touches no block port",
            id="component-without-port",
        ),
    ],
)
def test_template_errors_name_the_fault(build, message):
    with pytest.raises(TemplateError) as info:
        build()
    assert str(info.value) == message


def test_obstruction_table_frozen():
    # the two-component link where the flype swaps the component invariants
    assert per_component_beta_delta(FLYPE_NEG, LINK_ASSIGNMENT) == [
        (1, -1, -3),
        (2, -3, -1),
    ]


def test_family_knot_single_component_table():
    assert per_component_beta_delta(FLYPE_NEG, FAMILY_ASSIGNMENT) == [(1, 15, 15)]


def test_exchange_identity_assignment_zero_deltas():
    t = exchange_template(1)
    a = {"P": BraidWord(2, ()), "Q": BraidWord(2, ())}
    assert per_component_beta_delta(t, a) == [(1, -1, -1), (2, -1, -1), (3, -1, -1)]


def test_correspondence_is_a_bijection():
    corr = component_correspondence(FLYPE_NEG, LINK_ASSIGNMENT)
    assert corr == {1: 1, 2: 2} or set(corr.values()) == {1, 2}
    assert len(set(corr.values())) == len(corr)


def test_identity_port_map_on_middle_block_is_inconsistent():
    broken = Template(FLYPE_NEG.plus, FLYPE_NEG.minus,
                      (("P", "fixed"), ("Q", "fixed"), ("R", "fixed")))
    with pytest.raises(TemplateError, match="conflicting with earlier ports"):
        component_correspondence(broken, LINK_ASSIGNMENT)


def test_description_roundtrip():
    text = """{
      "kind": "flype",
      "params": {"sign": -1},
      "assignment": {"P": "s1^3", "Q": "s1^-5", "R": "s1^4"}
    }"""
    template, assignment = parse_template_description(text)
    assert template == FLYPE_NEG
    assert assignment == LINK_ASSIGNMENT
    with pytest.raises(TemplateError):
        parse_template_description('{"kind": "mystery", "assignment": {}}')


def words_on(strands: int):
    letter = st.tuples(
        st.integers(min_value=1, max_value=max(strands - 1, 1)),
        st.sampled_from((1, -1)),
    )
    return st.builds(
        lambda ls: BraidWord(strands, tuple(ls)),
        st.lists(letter, max_size=7),
    )


@st.composite
def template_cases(draw):
    name, params = draw(
        st.one_of(
            st.builds(lambda sign: ("flype", {"sign": sign}), st.sampled_from((1, -1))),
            st.builds(
                lambda weight: ("exchange", {"weight": weight}),
                st.integers(min_value=1, max_value=3),
            ),
            st.builds(
                lambda sign, weight: ("destabilize", {"sign": sign, "weight": weight}),
                st.sampled_from((1, -1)),
                st.integers(min_value=1, max_value=3),
            ),
        )
    )
    template = CONSTRUCTORS[name](**params)
    assignment = {bid: draw(words_on(w)) for bid, w in template.block_widths().items()}
    return name, params, template, assignment


@settings(max_examples=120, deadline=None)
@given(template_cases())
def test_instantiations_present_the_same_link(case):
    name, params, template, assignment = case
    plus = instantiate(template.plus, assignment)
    minus = instantiate(template.minus, assignment)
    assert alexander_polynomial(plus) == alexander_polynomial(minus)
    if name != "destabilize":
        assert plus.exponent_sum() == minus.exponent_sum()
    else:
        assert plus.exponent_sum() - minus.exponent_sum() == params["sign"]


@settings(max_examples=120, deadline=None)
@given(template_cases())
def test_correspondence_glues_for_every_assignment(case):
    name, params, template, assignment = case
    table = per_component_beta_delta(template, assignment)
    corr = component_correspondence(template, assignment)
    assert len(set(corr.values())) == len(corr)
    assert len(corr) == len(components(instantiate(template.plus, assignment)))
    if name != "destabilize":
        assert sum(r[1] for r in table) == sum(r[2] for r in table)
    elif params["sign"] == 1:
        assert all(bp == bm for _, bp, bm in table)
    else:
        # removing a negatively crossed loop raises that component's
        # self-linking by two and touches nothing else
        diffs = [(bp, bm) for _, bp, bm in table if bp != bm]
        assert len(diffs) == 1 and diffs[0][1] == diffs[0][0] + 2
