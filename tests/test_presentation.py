import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from flatdetect.presentation import (
    GroupPresentation,
    PresentationError,
    Word,
    evaluate_word,
    format_presentation,
    free_reduce,
    klein_bottle,
    parse_presentation,
    parse_word,
    spell,
)
from flatdetect.families import _abelianize
from flatdetect.repvar import RepPoint, haar_unitary


def test_parse_free_group_empty_relators():
    G = parse_presentation("gens: a; rels: ;")
    assert G.generators == ("a",)
    assert G.relators == ()


def test_parse_z2_commutator():
    G = parse_presentation("gens: a b; rels: a b a^-1 b^-1;")
    assert G.generators == ("a", "b")
    assert len(G.relators) == 1
    assert G.relators[0].letters == ((0, 1), (1, 1), (0, -1), (1, -1))


def test_parse_klein_bottle_relator_length():
    # oracle: the relator a b a b^-1 is already freely reduced, length 4
    def reduce_len(letters):
        stack = []
        for l in letters:
            if stack and stack[-1][0] == l[0] and stack[-1][1] == -l[1]:
                stack.pop()
            else:
                stack.append(l)
        return len(stack)

    G = parse_presentation("gens: a b; rels: a b a b^-1;")
    assert len(G.relators[0]) == 4
    assert reduce_len([(0, 1), (1, 1), (0, 1), (1, -1)]) == 4
    assert G == klein_bottle()


def test_parse_comments_and_multiword():
    G = parse_presentation(
        """
        # a presentation with two relators
        gens: x y ;   # generators
        rels: x y x^-1 y^-1 , y y ;
        """
    )
    assert len(G.relators) == 2
    assert G.relators[1].letters == ((1, 2),)


def test_parse_relators_are_reduced():
    G = parse_presentation("gens: a; rels: a a^-1 a;")
    assert G.relators[0].letters == ((0, 1),)


def test_parse_error_has_position():
    with pytest.raises(PresentationError) as exc:
        parse_presentation("gens: a ;\nrels: a b ;")
    assert exc.value.line == 2
    assert "b" in str(exc.value)


def test_parse_error_bad_syntax():
    with pytest.raises(PresentationError):
        parse_presentation("gens a ; rels: ;")
    with pytest.raises(PresentationError):
        parse_presentation("gens: a a ; rels: ;")
    with pytest.raises(PresentationError):
        parse_presentation("gens: a ; rels: , a ;")


def test_roundtrip_format_parse():
    G = parse_presentation("gens: a b c; rels: a b a^-1 b^-1, c c c;")
    assert parse_presentation(format_presentation(G)) == G


def test_format_spells_a_run_as_letters():
    src = "gens: x y ; rels: y y ;"
    G = parse_presentation(src)
    assert G.relators == (Word(((1, 2),)),)
    assert format_presentation(G) == src


def test_free_reduce_examples():
    w = Word(((0, 1), (0, -1)))
    assert free_reduce(w) == Word(())
    w = Word(((0, 1), (1, 1), (1, -1), (0, 1)))
    assert free_reduce(w) == Word(((0, 2),))
    w = Word(((0, 1), (0, 1), (0, -1), (0, -1)))
    assert free_reduce(w) == Word(())


@st.composite
def words(draw, n_gens=3, max_len=12):
    letters = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_gens - 1), st.sampled_from([1, -1])
            ),
            max_size=max_len,
        )
    )
    return Word(tuple(letters))


@st.composite
def run_words(draw, n_gens=2, max_len=6):
    runs = draw(
        st.lists(
            st.tuples(st.integers(0, n_gens - 1), st.integers(-6, 6)),
            max_size=max_len,
        )
    )
    return Word(tuple(runs))


def _spelled(w: Word) -> Word:
    """``w`` with every run written as |exponent| letters."""
    return Word(tuple((g, 1 if e > 0 else -1) for g, e in w.letters for _ in range(abs(e))))


def test_spell_writes_each_run_as_letters():
    w = Word(((0, 3), (1, -2), (0, 1)))
    assert spell(w) == Word(((0, 1), (0, 1), (0, 1), (1, -1), (1, -1), (0, 1)))
    assert spell(Word(())) == Word(())


@given(run_words(n_gens=3, max_len=12))
def test_free_reduce_is_the_run_normal_form(w):
    once = free_reduce(w)
    assert free_reduce(once) == once
    assert all(e != 0 for _, e in once.letters)
    assert all(a[0] != b[0] for a, b in zip(once.letters, once.letters[1:]))
    assert _abelianize(once, 3) == _abelianize(w, 3)
    assert once == free_reduce(_spelled(w))


@given(words())
def test_free_reduce_idempotent(w):
    once = free_reduce(w)
    assert free_reduce(once) == once
    assert once.is_reduced()


@given(run_words(n_gens=3, max_len=8))
def test_is_reduced_means_the_run_normal_form(w):
    # normal form: no zero exponent, no two adjacent runs of one generator
    normal = all(e != 0 for _, e in w.letters) and all(
        a[0] != b[0] for a, b in zip(w.letters, w.letters[1:])
    )
    assert w.is_reduced() == normal == (free_reduce(w) == w)


def test_is_reduced_rejects_mergeable_runs():
    for w in (Word(((0, 1), (0, 1))), Word(((0, 2), (0, -1))), Word(((0, 0),))):
        assert not w.is_reduced()
    assert Word(((0, 2), (1, -1), (0, 3))).is_reduced()


@given(words(), words())
def test_reduce_of_concat_independent_of_inner_reduction(u, v):
    assert free_reduce(u * v) == free_reduce(free_reduce(u) * free_reduce(v))


def _diag_point(*phases):
    return RepPoint(tuple(np.diag([np.exp(1j * p)]) for p in phases))


def test_evaluate_empty_word_identity():
    p = RepPoint((np.eye(3, dtype=complex), np.eye(3, dtype=complex)))
    assert np.allclose(evaluate_word(Word(()), p), np.eye(3))


def test_evaluate_commutator_of_commuting_diagonals():
    p = RepPoint((np.diag([1j, -1j]), np.diag([np.exp(0.7j), 1.0])))
    w = Word(((0, 1), (1, 1), (0, -1), (1, -1)))
    assert np.allclose(evaluate_word(w, p), np.eye(2), atol=1e-12)


def test_evaluate_square_of_rotation():
    theta = 0.3
    p = _diag_point(theta)
    w = Word(((0, 1), (0, 1)))
    assert np.allclose(evaluate_word(w, p), [[np.exp(2j * theta)]], atol=1e-12)


def test_evaluate_respects_free_reduction():
    rng = np.random.default_rng(5)
    from flatdetect.repvar import haar_unitary

    p = RepPoint((haar_unitary(rng, 3), haar_unitary(rng, 3)))
    w = Word(((0, 1), (1, 1), (1, -1), (0, 1), (1, -1)))
    assert np.allclose(
        evaluate_word(w, p), evaluate_word(free_reduce(w), p), atol=1e-12
    )


@given(words(n_gens=2, max_len=6), words(n_gens=2, max_len=6))
def test_evaluate_concatenation_is_product(u, v):
    rng = np.random.default_rng(11)
    from flatdetect.repvar import haar_unitary

    p = RepPoint((haar_unitary(rng, 2), haar_unitary(rng, 2)))
    lhs = evaluate_word(u * v, p)
    rhs = evaluate_word(u, p) @ evaluate_word(v, p)
    assert np.allclose(lhs, rhs, atol=1e-10)


def _letter_by_letter(w: Word, mats: np.ndarray) -> np.ndarray:
    """The product along ``w`` of one assignment ``(gens, k, k)``, a letter
    at a time."""
    expected = np.eye(mats.shape[-1], dtype=complex)
    for g, e in _spelled(w).letters:
        expected = expected @ (mats[g] if e == 1 else mats[g].conj().T)
    return expected


def _haar_stack(rng, lead: tuple[int, ...], gens: int, k: int) -> np.ndarray:
    """Haar unitaries, one per generator of each assignment of a stack
    ``(*lead, gens, k, k)``."""
    mats = [haar_unitary(rng, k) for _ in range(gens * math.prod(lead))]
    return np.array(mats).reshape(*lead, gens, k, k)


# fibre sizes, and the stack shapes in front of ``(gens, k, k)``
FIBRES = st.integers(1, 6)
LEADS = st.sampled_from([(), (3,), (2, 3)])


@given(words(n_gens=2, max_len=6), FIBRES, LEADS)
def test_evaluate_word_on_a_stack_matches_each_point(w, k, lead):
    rng = np.random.default_rng(12)
    stack = _haar_stack(rng, lead, 2, k)
    before = stack.copy()
    out = evaluate_word(w, stack)
    assert out.shape == (*lead, k, k)
    for idx in np.ndindex(*lead):
        assert np.allclose(out[idx], _letter_by_letter(w, stack[idx]), rtol=0, atol=1e-12)
        assert np.allclose(out[idx], evaluate_word(w, RepPoint(stack[idx])), rtol=0, atol=1e-12)
    out[...] = 0  # the product is an array of its own
    assert np.array_equal(stack, before)


@given(run_words(), FIBRES, LEADS, st.integers(0, 2**32 - 1))
@example(Word(((0, 0),)), 2, (3,), 0)  # a lone zero run is the empty product
@example(Word(((1, 0), (0, -3), (1, 0))), 3, (2, 3), 0)
@example(Word(()), 6, (), 0)
def test_evaluate_runs_match_the_letter_by_letter_product(w, k, lead, seed):
    rng = np.random.default_rng(seed)
    stack = _haar_stack(rng, lead, 2, k)
    out = evaluate_word(w, stack)
    assert out.shape == (*lead, k, k)
    for idx in np.ndindex(*lead):
        assert np.allclose(out[idx], _letter_by_letter(w, stack[idx]), rtol=0, atol=1e-12)


def test_evaluate_dimension_mismatch():
    mats = (np.eye(2, dtype=complex), np.eye(3, dtype=complex))
    with pytest.raises(ValueError, match="dimension mismatch"):
        evaluate_word(Word(((0, 1),)), mats)


def test_parse_word_reduces():
    G = parse_presentation("gens: a b; rels: ;")
    w = parse_word("a b b^-1 a", G)
    assert w.letters == ((0, 2),)
    with pytest.raises(PresentationError):
        parse_word("c", G)
