"""Multi-particle state spaces over finite mode sets and the operator algebra.

A universe declares finitely many sectors, each bosonic or fermionic with a
finite ordered mode set.  States are finite linear combinations of canonical
monomials (strictly increasing fermion mode lists, sorted boson multisets,
sectors in declaration order); the Koszul sign of any reordering is absorbed
into the coefficient, and the grade of a monomial is its fermion count mod 2.

The same monomial machinery realizes the dual space, so the interior product
is the graded derivation in both directions, emission/absorption operators are
single-generator words, and every operator element is stored normal-ordered:
all emissions left of all absorptions, both sides canonical.  One step,
`_times_generator`, appends a generator on the right of a normal-ordered
element through the products and the relation
a[zeta] a+[z] = (-1)^{|zeta||z|} a+[z] a[zeta] + <zeta, z> id.  `normal_order`
folds a word into the identity, and `_compose` folds the words of a right
factor into a left one; equal words merge at every step.  Products and
brackets compose plain {word: coeff} term dicts through `_compose`, which
adds k times the product into its caller's accumulator: `super_bracket`
splits each operand once into its even and odd terms and composes all four
products into one dict.

Each universe builds its vacuum monomial (one empty mode tuple per sector)
once and keeps it as ``Universe.vacuum``; the identity operator is the
(vacuum, vacuum) word with coefficient 1, and ``OperatorElement.apply``
returns the state itself for it.

States and operators are ``exactfield.Combination`` subclasses, whose
shapes are (universe, dual) and (universe).  The public constructors
``FockState(...)`` and ``OperatorElement(...)`` validate every monomial and
coerce every coefficient.  Results that the algebra builds itself are
canonical by construction, so they go through the trusted constructor
``_trusted``, which only drops zero coefficients.
"""

from __future__ import annotations

import enum
import itertools
import json
from typing import Dict, Iterable, List, Tuple

from .exactfield import Combination, Immutable, Scalar, _accumulate, shape_field

_ONE = Scalar.one()


class Statistics(enum.Enum):
    BOSON = "boson"
    FERMION = "fermion"


class SectorMismatchError(ValueError):
    """Operands live over different universes or mix dual with non-dual."""


class RankError(ValueError):
    """Operation requires a rank-1 (single particle) argument."""


class Sector(Immutable):
    __slots__ = ("name", "statistics", "modes")

    def __init__(self, name: str, statistics: Statistics, modes: Iterable[int]):
        modes = tuple(modes)
        if len(set(modes)) != len(modes):
            raise ValueError(f"duplicate modes in sector {name}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "statistics", statistics)
        object.__setattr__(self, "modes", modes)

    @property
    def is_fermion(self) -> bool:
        return self.statistics is Statistics.FERMION

    def __eq__(self, other):
        if not isinstance(other, Sector):
            return NotImplemented
        return (self.name, self.statistics, self.modes) == (
            other.name,
            other.statistics,
            other.modes,
        )

    def __hash__(self):
        return hash((self.name, self.statistics, self.modes))

    def __repr__(self):
        modes = ",".join(map(str, self.modes))
        return f"sector {self.name}: {self.statistics.value} [{modes}]"


class Universe(Immutable):
    """An ordered family of sectors; the ordering fixes the canonical monomial form."""

    __slots__ = ("sectors", "is_fermion", "vacuum", "_index")

    def __init__(self, sectors: Iterable[Sector]):
        sectors = tuple(sectors)
        names = [s.name for s in sectors]
        if len(set(names)) != len(names):
            raise ValueError("duplicate sector names")
        object.__setattr__(self, "sectors", sectors)
        # per-sector statistics flags, read by the monomial inner loops
        object.__setattr__(self, "is_fermion", tuple(s.is_fermion for s in sectors))
        object.__setattr__(self, "vacuum", tuple(() for _ in sectors))
        object.__setattr__(self, "_index", {s.name: i for i, s in enumerate(sectors)})

    def sector_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SectorMismatchError(f"unknown sector {name!r}") from None

    def check_mode(self, sector_idx: int, mode: int):
        sector = self.sectors[sector_idx]
        if mode not in sector.modes:
            raise ValueError(f"mode {mode} not in sector {sector.name}")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Universe):
            return NotImplemented
        return self.sectors == other.sectors

    def __hash__(self):
        return hash(self.sectors)

    def __repr__(self):
        return "universe { " + "; ".join(repr(s) for s in self.sectors) + " }"


# A monomial is a tuple over sectors of mode tuples: fermion entries strictly
# increasing, boson entries sorted with repeats.
Monomial = Tuple[Tuple[int, ...], ...]


def monomial_rank(m: Monomial) -> int:
    return sum(map(len, m))


def monomial_grade(universe: Universe, m: Monomial) -> int:
    return sum(len(part) for part, odd in zip(m, universe.is_fermion) if odd) % 2


def _mode_monomial(universe: Universe, sector_idx: int, mode: int) -> Monomial:
    """The rank-1 monomial of one mode; the mode is not checked."""
    return tuple((mode,) if i == sector_idx else () for i in range(len(universe.sectors)))


def monomial_product(universe: Universe, m1: Monomial, m2: Monomial):
    """(sign, canonical monomial), or None when a fermion mode repeats.

    The sign is the parity of the fermion pairs (a of m1, b of m2) that the
    merge moves past each other, i.e. with b before a in canonical order.
    """
    parts: List[Tuple[int, ...]] = []
    crossings = 0
    odd2_before = 0  # fermions of m2 in the sectors already merged
    for p1, p2, odd in zip(m1, m2, universe.is_fermion):
        if odd:
            for b in p2:
                for a in p1:
                    if a == b:
                        return None
                    crossings += a > b
            crossings += len(p1) * odd2_before
            odd2_before += len(p2)
        parts.append(tuple(sorted(p1 + p2)) if p1 and p2 else p1 or p2)
    return (-1 if crossings & 1 else 1), tuple(parts)


def _validate_monomial(universe: Universe, m: Monomial):
    m = tuple(tuple(part) for part in m)
    if len(m) != len(universe.sectors):
        raise SectorMismatchError("monomial sector count mismatch")
    for idx, part in enumerate(m):
        sector = universe.sectors[idx]
        for mode in part:
            universe.check_mode(idx, mode)
        if sector.is_fermion:
            if any(a >= b for a, b in zip(part, part[1:])):
                raise ValueError(f"fermion part {part} not strictly increasing")
        else:
            if any(a > b for a, b in zip(part, part[1:])):
                raise ValueError(f"boson part {part} not sorted")
    return m


class FockState(Combination):
    """Sparse linear combination of canonical monomials; `dual` marks the dual space."""

    __slots__ = ()
    _error = SectorMismatchError
    universe = shape_field(0, "The universe of sectors the monomials live over.", SectorMismatchError, "universe")
    dual = shape_field(1, "True for an element of the dual space.", SectorMismatchError, "dual")

    def __init__(self, universe: Universe, terms=None, dual: bool = False):
        clean = {_validate_monomial(universe, mono): Scalar.coerce(c) for mono, c in (terms or {}).items()}
        self._fill((universe, bool(dual)), clean)

    @classmethod
    def vacuum(cls, universe: Universe, dual: bool = False) -> "FockState":
        return cls(universe, {universe.vacuum: Scalar.one()}, dual)

    @classmethod
    def mode(cls, universe: Universe, sector: str, mode: int, dual: bool = False) -> "FockState":
        idx = universe.sector_index(sector)
        universe.check_mode(idx, mode)
        return cls._trusted((universe, bool(dual)), {_mode_monomial(universe, idx, mode): Scalar.one()})

    def rank(self) -> int:
        """The common rank of a homogeneous state; raises if mixed."""
        ranks = sorted({monomial_rank(m) for m in self.terms})
        if len(ranks) != 1:
            raise RankError(f"state has mixed ranks {ranks}")
        return ranks[0]

    def grades(self):
        return sorted({monomial_grade(self.universe, m) for m in self.terms})

    def vacuum_coefficient(self) -> Scalar:
        return self.terms.get(self.universe.vacuum, Scalar.zero())

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        chunks = [f"{format_monomial(self.universe, m)} * ({self.terms[m]})" for m in sorted(self.terms)]
        return ("dual " if self.dual else "") + " + ".join(chunks)

    __repr__ = __str__


def format_monomial(universe: Universe, m: Monomial) -> str:
    chunks = []
    for idx, part in enumerate(m):
        name = universe.sectors[idx].name
        chunks.extend(f"{name}:{mode}" for mode in part)
    return "^".join(chunks) if chunks else "vac"


def state_to_json(state: FockState) -> str:
    """Deterministic JSON dump with canonical monomial keys."""
    payload = {
        "dual": state.dual,
        "sectors": [
            {
                "name": s.name,
                "statistics": s.statistics.value,
                "modes": list(s.modes),
            }
            for s in state.universe.sectors
        ],
        "terms": {
            format_monomial(state.universe, m): str(c)
            for m, c in state.terms.items()
        },
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ": "))


# -- exterior product ------------------------------------------------------------


def exterior_product(phi: FockState, psi: FockState) -> FockState:
    """The super-commutative product; the vacuum is the unit."""
    phi._check_mate(psi)
    universe = phi.universe
    terms: Dict[Monomial, Scalar] = {}
    for m1, c1 in phi.terms.items():
        for m2, c2 in psi.terms.items():
            prod = monomial_product(universe, m1, m2)
            if prod is None:
                continue
            sign, mono = prod
            _accumulate(terms, mono, c1 * c2, sign)
    return FockState._trusted((universe, phi.dual), terms)


# -- interior product -------------------------------------------------------------


def _contract_monomial(universe: Universe, contractor: Monomial, target: Monomial):
    """Full contraction of `contractor` into `target`, peeling leftmost first.

    Returns (int factor, reduced monomial), or None when a mode of
    `contractor` is missing from what is left of `target`.  The contraction
    runs sector by sector.  A fermionic hit multiplies the factor by the sign
    (-1)^k, k the number of fermions standing to the left of the hit: those
    left in the sectors already passed, plus its position in its own part.
    A bosonic hit multiplies it by the number of occurrences of its mode
    left in its part, since bosons cross everything freely.
    """
    factor, parts, fermions_before = 1, [], 0
    for peel, part, odd in zip(contractor, target, universe.is_fermion):
        for mode in peel:
            if mode not in part:
                return None
            position = part.index(mode)
            if not odd:
                factor *= part.count(mode)
            elif (fermions_before + position) & 1:
                factor = -factor
            part = part[:position] + part[position + 1:]
        if odd:
            fermions_before += len(part)
        parts.append(part)
    return factor, tuple(parts)


class MixedRankError(ValueError):
    """Interior product fell on both sides of the duality at once."""


def interior_product(lam: FockState, psi: FockState):
    """Contraction between a dual state and a state.

    Each monomial pair contributes on the side of higher rank; equal ranks
    produce the scalar pairing, returned as a rank-0 (non-dual) state.  A
    combination landing on both sides at once raises MixedRankError.
    """
    if lam.universe != psi.universe:
        raise SectorMismatchError("states live over different universes")
    if not lam.dual or psi.dual:
        raise SectorMismatchError("interior product needs (dual, non-dual) operands")
    universe = lam.universe
    sides = ({}, {})  # the state side's terms and the dual side's, indexed by the dual flag
    hit = [False, False]
    psi_items = [(m_mono, monomial_rank(m_mono), m_coeff) for m_mono, m_coeff in psi.terms.items()]
    for d_mono, d_coeff in lam.terms.items():
        d_rank = monomial_rank(d_mono)
        for m_mono, m_rank, m_coeff in psi_items:
            dual = d_rank > m_rank
            hit[dual] = True
            lower, higher = (m_mono, d_mono) if dual else (d_mono, m_mono)
            contracted = _contract_monomial(universe, lower, higher)
            if contracted is not None:
                factor, mono = contracted
                _accumulate(sides[dual], mono, d_coeff * m_coeff, factor)
    state_part = FockState._trusted((universe, False), sides[0])
    dual_part = FockState._trusted((universe, True), sides[1])
    if not dual_part.is_zero() and not state_part.is_zero():
        raise MixedRankError("contraction produced both a state and a dual state")
    # a zero result is dual only when every monomial pair fell on the dual side
    return dual_part if not dual_part.is_zero() or hit == [False, True] else state_part


def pairing(lam: FockState, psi: FockState) -> Scalar:
    """Scalar duality pairing <lam, psi> of equal-rank states."""
    if lam.is_zero() or psi.is_zero():
        return Scalar.zero()
    result = interior_product(lam, psi)
    if result.dual or any(monomial_rank(m) for m in result.terms):
        raise RankError("pairing needs equal total ranks")
    return result.vacuum_coefficient()


# -- operator algebra ----------------------------------------------------------

# A generator is ('+', sector_idx, mode) for emission or ('-', sector_idx, mode)
# for absorption.  A stored word is a pair (emit monomial, absorb monomial).
Generator = Tuple[str, int, int]
Word = Tuple[Monomial, Monomial]


class OperatorElement(Combination):
    """Normal-ordered element of the graded operator algebra, keyed by (emit, absorb) words."""

    __slots__ = ()
    _error = SectorMismatchError
    universe = shape_field(0, "The universe of sectors the words live over.", SectorMismatchError, "universe")

    def __init__(self, universe: Universe, terms=None):
        clean = {
            (_validate_monomial(universe, emit_m), _validate_monomial(universe, absorb_m)): Scalar.coerce(c)
            for (emit_m, absorb_m), c in (terms or {}).items()
        }
        self._fill((universe,), clean)

    @classmethod
    def identity(cls, universe: Universe) -> "OperatorElement":
        vac = universe.vacuum
        return cls(universe, {(vac, vac): Scalar.one()})

    def grades(self):
        return [grade for grade, part in enumerate(_graded_terms(self.universe, self.terms)) if part]

    def graded_parts(self):
        """(even part, odd part)."""
        even, odd = _graded_terms(self.universe, self.terms)
        return self._like(even), self._like(odd)

    def __mul__(self, other):
        """Composition, folding each word of `other` into these terms."""
        if not isinstance(other, OperatorElement):
            return NotImplemented
        self._check_mate(other)
        return self._like(_compose(self.universe, {}, self.terms, other.terms))

    def apply(self, psi: FockState) -> FockState:
        """Evaluate the endomorphism: contract the absorb part, wedge the emit part."""
        universe, dual = psi.shape
        if dual:
            raise SectorMismatchError("operators act on non-dual states")
        if self.shape != (universe,):
            raise SectorMismatchError("operator and state universes differ")
        vac = universe.vacuum
        terms = self.terms
        if len(terms) == 1 and terms.get((vac, vac)) == _ONE:  # the identity
            return psi
        out_terms: Dict[Monomial, Scalar] = {}
        for (emit_m, absorb_m), coeff in terms.items():
            for m_mono, m_coeff in psi.terms.items():
                contracted = _contract_monomial(universe, absorb_m, m_mono)
                if contracted is None:
                    continue
                factor, mono = contracted
                prod = monomial_product(universe, emit_m, mono)
                if prod is None:
                    continue
                sign, result = prod
                _accumulate(out_terms, result, coeff * m_coeff, sign * factor)
        return FockState._trusted((universe, False), out_terms)

    __call__ = apply

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        chunks = []
        for emit_m, absorb_m in sorted(self.terms):
            coeff = self.terms[(emit_m, absorb_m)]
            e_label = format_monomial(self.universe, emit_m)
            a_label = format_monomial(self.universe, absorb_m)
            chunks.append(f"emit[{e_label}]*absorb[{a_label}] * ({coeff})")
        return " + ".join(chunks)

    __repr__ = __str__


def _rank1_operator(state: FockState, dual: bool, what: str) -> OperatorElement:
    """The one-generator words of a rank-1 state of duality `dual`, else SectorMismatchError(what)."""
    if state.dual != dual:
        raise SectorMismatchError(what)
    vac = state.universe.vacuum
    terms: Dict[Word, Scalar] = {}
    for mono, coeff in state.terms.items():
        if monomial_rank(mono) != 1:
            raise RankError("emission/absorption needs a rank-1 argument")
        # distinct rank-1 monomials give distinct words, so keys never collide
        terms[(vac, mono) if state.dual else (mono, vac)] = coeff
    return OperatorElement._trusted((state.universe,), terms)


def emit(z: FockState) -> OperatorElement:
    """Emission operator a+[z] phi = z <> phi for a rank-1 state z."""
    return _rank1_operator(z, False, "emit takes a non-dual rank-1 state")


def absorb(zeta: FockState) -> OperatorElement:
    """Absorption operator a[zeta] phi = zeta | phi for a rank-1 dual state."""
    return _rank1_operator(zeta, True, "absorb takes a dual rank-1 state")


def word_generators(universe: Universe, word: Word) -> Tuple[Generator, ...]:
    """Expand a stored word into its generator sequence (left factor acts last).

    The absorb monomial zeta_{a1} <> ... <> zeta_{ak} (ascending) acts by
    peeling the leftmost factor first, so its generator sequence is descending.
    """
    emit_m, absorb_m = word
    absorbs = [("-", s, m) for s, part in enumerate(absorb_m) for m in part]
    return tuple([("+", s, m) for s, part in enumerate(emit_m) for m in part] + absorbs[::-1])


def _check_generator(universe: Universe, gen) -> Generator:
    """The generator `gen`, after checking its kind, sector index and mode."""
    kind, sector_idx, mode = gen
    if kind not in ("+", "-"):
        raise ValueError(f"generator kind must be '+' or '-', got {kind!r}")
    if not 0 <= sector_idx < len(universe.sectors):
        raise SectorMismatchError(f"no sector with index {sector_idx}")
    universe.check_mode(sector_idx, mode)
    return gen


def _times_generator(universe: Universe, terms: Dict[Word, Scalar], gen: Generator):
    """The normal-ordered {word: coeff} of X g, for normal-ordered X = `terms`.

    An absorption acts first, so it joins the absorb monomial A on its left.
    An emission z passes A with sign (-1)^{|z||A|}, joins the emit monomial
    on its right, and leaves the contraction of z with A.
    """
    kind, sector_idx, mode = gen
    single = _mode_monomial(universe, sector_idx, mode)
    out: Dict[Word, Scalar] = {}
    if kind == "-":
        for (emit_m, absorb_m), coeff in terms.items():
            prod = monomial_product(universe, single, absorb_m)
            if prod is not None:
                # distinct absorb monomials stay distinct, so keys never collide
                out[(emit_m, prod[1])] = coeff if prod[0] > 0 else -coeff
        return out
    odd = universe.is_fermion[sector_idx]
    for (emit_m, absorb_m), coeff in terms.items():
        prod = monomial_product(universe, emit_m, single)
        if prod is not None:
            sign, mono = prod
            if odd and monomial_grade(universe, absorb_m):
                sign = -sign
            _accumulate(out, (mono, absorb_m), coeff, sign)
        hit = _contract_monomial(universe, single, absorb_m)
        if hit is not None:
            _accumulate(out, (emit_m, hit[1]), coeff, hit[0])
    return out


def _compose(universe: Universe, out: dict, x_terms: Dict[Word, Scalar], y_terms: Dict[Word, Scalar], k: int = 1):
    """Add k X Y into the accumulator `out`, for normal-ordered X = `x_terms` and Y = `y_terms`; returns `out`.

    Folds the generators of each word of Y into X, one `_times_generator`
    step each; `out` may then hold zero coefficients.
    """
    for w2, c2 in y_terms.items():
        piece = x_terms
        for gen in word_generators(universe, w2):
            piece = _times_generator(universe, piece, gen)
        for word, coeff in piece.items():
            _accumulate(out, word, coeff * c2, k)
    return out


def _graded_terms(universe: Universe, terms: Dict[Word, Scalar]):
    """(even terms, odd terms) of a {word: coeff} dict."""
    parts: Tuple[Dict[Word, Scalar], Dict[Word, Scalar]] = ({}, {})
    for word, coeff in terms.items():
        emit_m, absorb_m = word
        parts[(monomial_grade(universe, emit_m) + monomial_grade(universe, absorb_m)) % 2][word] = coeff
    return parts


def normal_order(universe: Universe, gens) -> OperatorElement:
    """The unique normal-ordered element equal to the composition of `gens`.

    Folds the generators into the identity, one `_times_generator` step each;
    the cost is the word length times the number of live words.
    """
    vac = universe.vacuum
    terms = {(vac, vac): Scalar.one()}
    for gen in [_check_generator(universe, gen) for gen in gens]:
        terms = _times_generator(universe, terms, gen)
    return OperatorElement._trusted((universe,), terms)


def op_apply(x: OperatorElement, psi: FockState) -> FockState:
    return x.apply(psi)


def generator_action(universe: Universe, gens):
    """The raw composition of a generator word, as a map on states.

    Checks the word and builds each generator's rank-1 state once; the map
    applies them right to left, one at a time, through `exterior_product`
    and `interior_product` alone.
    """
    factors = [
        (kind, FockState._trusted((universe, kind == "-"), {_mode_monomial(universe, sector_idx, mode): Scalar.one()}))
        for kind, sector_idx, mode in reversed([_check_generator(universe, gen) for gen in gens])
    ]

    def action(psi: FockState) -> FockState:
        out = psi
        for kind, single in factors:
            if kind == "+":
                out = exterior_product(single, out)
            else:
                # as an endomorphism of the state space, absorption kills the vacuum
                kept = {m: c for m, c in out.terms.items() if monomial_rank(m) >= 1}
                kept = FockState._trusted((universe, False), kept)
                out = kept if kept.is_zero() else interior_product(single, kept)
        return out

    return action


def super_bracket(x: OperatorElement, y: OperatorElement) -> OperatorElement:
    """XY - (-1)^{|X||Y|} YX on definite-grade parts, extended bilinearly.

    Each operand is split once into its graded term dicts, and the products
    of the parts are composed into one accumulator.
    """
    x._check_mate(y)
    universe = x.universe
    y_parts = _graded_terms(universe, y.terms)
    out: Dict[Word, Scalar] = {}
    for x_grade, xe in enumerate(_graded_terms(universe, x.terms)):
        for y_grade, ye in enumerate(y_parts):
            if xe and ye:
                _compose(universe, out, xe, ye)
                _compose(universe, out, ye, xe, 1 if x_grade and y_grade else -1)
    return x._like(out)


# -- exhaustive bases -----------------------------------------------------------


def basis_monomials(universe: Universe, max_rank: int):
    """All canonical monomials of total rank <= max_rank, deterministic order."""
    per_sector: List[List[Tuple[int, ...]]] = []
    for sector in universe.sectors:
        parts: List[Tuple[int, ...]] = []
        for r in range(max_rank + 1):
            if sector.is_fermion:
                parts.extend(itertools.combinations(sector.modes, r))
            else:
                parts.extend(
                    itertools.combinations_with_replacement(sector.modes, r)
                )
        per_sector.append(parts)
    return sorted(m for m in itertools.product(*per_sector) if monomial_rank(m) <= max_rank)


def basis_states(universe: Universe, max_rank: int, dual: bool = False):
    return [
        FockState(universe, {m: Scalar.one()}, dual)
        for m in basis_monomials(universe, max_rank)
    ]
