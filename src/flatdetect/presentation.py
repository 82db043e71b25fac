"""Finitely presented groups: parsing, free reduction, word evaluation.

The presentation source format is

    gens: a b ; rels: a b a^-1 b^-1 , b b ;

i.e. a generator list and a comma-separated relator list, both
semicolon-terminated.  A word is a whitespace-separated sequence of letters,
each ``<id>`` or ``<id>^-1``.  ``#`` starts a comment running to end of line.
An empty relator list (``rels: ;``) denotes a free group.  In memory a word
holds runs (generator, exponent), so a^n is one run whatever |n|.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class PresentationError(ValueError):
    """Malformed presentation source, with the offending position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


# One run of a word: (generator index, integer exponent); a letter has +1 or -1.
Letter = tuple[int, int]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class Word:
    """A word in the generators, one run (generator, exponent) per entry."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        for g, e in self.letters:
            if not isinstance(e, (int, np.integer)):
                raise ValueError(f"run exponent must be an integer, got {e!r}")
            if g < 0:
                raise ValueError(f"negative generator index {g}")

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def is_reduced(self) -> bool:
        """Whether the word is in free-group run normal form."""
        return free_reduce(self) == self


def free_reduce(w: Word) -> Word:
    """The free-group normal form: adjacent runs of a generator merged, zeros
    dropped; ``w`` itself when it is already reduced, i.e. when no run merged
    or dropped and the stack is as long as the word."""
    stack: list[Letter] = []
    for g, e in w.letters:
        if stack and stack[-1][0] == g:
            e += stack.pop()[1]
        if e:
            stack.append((g, e))
    return w if len(stack) == len(w.letters) else Word(tuple(stack))


@dataclass(frozen=True)
class GroupPresentation:
    """Generators plus relator words; relators are stored freely reduced."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...] = ()

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise PresentationError("duplicate generator identifiers")
        for g in self.generators:
            if not _IDENT_RE.fullmatch(g):
                raise PresentationError(f"invalid generator identifier {g!r}")
        object.__setattr__(
            self, "relators", tuple(free_reduce(r) for r in self.relators)
        )
        n = len(self.generators)
        for r in self.relators:
            for g, _ in r.letters:
                if g >= n:
                    raise PresentationError(
                        f"relator letter index {g} out of range for {n} generators"
                    )

    def generator_index(self, name: str) -> int:
        try:
            return self.generators.index(name)
        except ValueError:
            raise PresentationError(f"undeclared generator {name!r}") from None


_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*(?:\^-1)?|[;:,]|\S")


def _tokenize(text: str):
    """Yield (token, line, column), 1-based positions, comments stripped."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0]
        for m in _TOKEN_RE.finditer(line):
            yield m.group(0), lineno, m.start() + 1


def parse_presentation(text: str) -> GroupPresentation:
    """Parse presentation source into a GroupPresentation.

    Raises PresentationError with line/column on syntax errors or when a
    relator uses an undeclared generator.
    """
    tokens = list(_tokenize(text))
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, 0, 0)

    def expect(tok: str):
        nonlocal pos
        got, ln, col = peek()
        if got != tok:
            raise PresentationError(f"expected {tok!r}, got {got!r}", ln, col)
        pos += 1

    expect("gens")
    expect(":")
    gen_names: list[str] = []
    while True:
        tok, ln, col = peek()
        if tok == ";":
            pos += 1
            break
        if tok is None:
            raise PresentationError("unterminated generator list", ln, col)
        if not _IDENT_RE.fullmatch(tok):
            raise PresentationError(f"invalid generator identifier {tok!r}", ln, col)
        gen_names.append(tok)
        pos += 1
    index = {name: i for i, name in enumerate(gen_names)}
    if len(index) != len(gen_names):
        raise PresentationError("duplicate generator identifiers")

    expect("rels")
    expect(":")
    relators: list[Word] = []
    current: list[Letter] = []
    while True:
        tok, ln, col = peek()
        if tok in (";", ","):
            if current:
                relators.append(Word(tuple(current)))
                current = []
            elif tok == ",":
                raise PresentationError("empty relator before ','", ln, col)
            pos += 1
            if tok == ";":
                break
            continue
        if tok is None:
            raise PresentationError("unterminated relator list", ln, col)
        name, sign = (tok[:-3], -1) if tok.endswith("^-1") else (tok, 1)
        if name not in index:
            raise PresentationError(f"undeclared generator {name!r} in relator", ln, col)
        current.append((index[name], sign))
        pos += 1

    tok, ln, col = peek()
    if tok is not None:
        raise PresentationError(f"trailing input {tok!r}", ln, col)
    return GroupPresentation(tuple(gen_names), tuple(relators))


def parse_word(text: str, G: GroupPresentation) -> Word:
    """Parse a single word (whitespace-separated letters) against ``G``."""
    letters: list[Letter] = []
    for tok, ln, col in _tokenize(text):
        name, sign = (tok[:-3], -1) if tok.endswith("^-1") else (tok, 1)
        if name not in G.generators:
            raise PresentationError(f"undeclared generator {name!r}", ln, col)
        letters.append((G.generator_index(name), sign))
    return free_reduce(Word(tuple(letters)))


def spell(w: Word) -> Word:
    """``w`` with each run written out as |exponent| letters of exponent +-1."""
    return Word(tuple((g, 1 if e > 0 else -1) for g, e in w.letters for _ in range(abs(e))))


def format_word(w: Word, G: GroupPresentation) -> str:
    """Render a word of ``G`` as source letters (a run as |exponent| letters)."""
    return " ".join(G.generators[g] + ("" if e == 1 else "^-1") for g, e in spell(w).letters)


def format_presentation(G: GroupPresentation) -> str:
    """Render in the source format; re-parses equal."""
    rels = " , ".join(format_word(r, G) for r in G.relators)
    return f"gens: {' '.join(G.generators)} ; rels: {rels} ;"


def matrix_stack(point) -> np.ndarray:
    """The complex array ``(..., gens, k, k)`` of a RepPoint's ``matrices``,
    of an array, or of a sequence of square matrices of one size."""
    try:
        mats = np.asarray(getattr(point, "matrices", point), dtype=complex)
    except ValueError:  # ragged: matrices of different sizes
        raise ValueError("dimension mismatch: matrices of different sizes") from None
    if mats.ndim < 3 or mats.shape[-2] != mats.shape[-1]:
        raise ValueError(f"dimension mismatch: {mats.shape} is no stack of square matrices")
    return mats


def evaluate_word(w: Word, point) -> np.ndarray:
    """Product of the assigned matrices along ``w``; identity for the empty word.

    ``point`` is a RepPoint or an array ``(gens, k, k)`` of matrices indexed
    like the presentation's generators, or a stack ``(..., gens, k, k)`` of
    such assignments, which gives the stack ``(..., k, k)`` of products.  A
    negative run uses the conjugate transpose; a run takes O(log |exponent|)
    products.
    """
    mats = matrix_stack(point)
    n = mats.shape[-1]
    out = None
    for g, e in w.letters:
        if g >= mats.shape[-3]:
            raise ValueError(f"no matrix assigned to generator index {g}")
        m = mats[..., g, :, :]
        m = m if e > 0 else m.conj().swapaxes(-1, -2)
        m = m if abs(e) == 1 else np.linalg.matrix_power(m, abs(e))
        out = m.copy() if out is None else out @ m
    if out is None:
        out = np.zeros(mats.shape[:-3] + (n, n), dtype=complex)
        out[..., range(n), range(n)] = 1
    return out


def commutator(a: Word, b: Word) -> Word:
    return a * b * a.inverse() * b.inverse()


def free_group(m: int, names: Sequence[str] | None = None) -> GroupPresentation:
    names = tuple(names) if names is not None else tuple(f"g{i+1}" for i in range(m))
    if len(names) != m:
        raise ValueError("name count does not match rank")
    return GroupPresentation(names, ())


def free_abelian(n: int, names: Sequence[str] | None = None) -> GroupPresentation:
    names = tuple(names) if names is not None else tuple(f"t{i+1}" for i in range(n))
    if len(names) != n:
        raise ValueError("name count does not match rank")
    # each [t_i, t_j] built as one word: twice as fast as by ``commutator``
    rels = tuple(Word(((i, 1), (j, 1), (i, -1), (j, -1))) for i in range(n) for j in range(i + 1, n))
    return GroupPresentation(names, rels)


def klein_bottle() -> GroupPresentation:
    """The Klein-bottle group < a, b | a b a b^-1 >."""
    return GroupPresentation(("a", "b"), (Word(((0, 1), (1, 1), (0, 1), (1, -1))),))


def surface_group(genus: int) -> GroupPresentation:
    """Closed orientable surface group with the single product-of-commutators relator."""
    if genus < 1:
        raise ValueError("genus must be >= 1")
    names = tuple(x for i in range(genus) for x in (f"a{i+1}", f"b{i+1}"))
    rel = Word(tuple(run for a in range(0, 2 * genus, 2)
                     for run in ((a, 1), (a + 1, 1), (a, -1), (a + 1, -1))))
    return GroupPresentation(names, (rel,))


def direct_product(G1: GroupPresentation, G2: GroupPresentation) -> GroupPresentation:
    """Presentation of G1 x G2: all generators, both relator sets, and all
    cross commutators.  Clashing right-hand generator names get a ``_2`` suffix."""
    taken = set(G1.generators)
    right_names = []
    for name in G2.generators:
        new = name
        while new in taken:
            new += "_2"
        taken.add(new)
        right_names.append(new)
    names = G1.generators + tuple(right_names)
    off = len(G1.generators)

    def shift(w: Word) -> Word:
        return Word(tuple((g + off, e) for g, e in w.letters))

    rels = list(G1.relators) + [shift(r) for r in G2.relators]
    for i in range(len(G1.generators)):
        for j in range(len(G2.generators)):
            rels.append(commutator(Word(((i, 1),)), Word(((off + j, 1),))))
    return GroupPresentation(names, tuple(rels))
