"""Finite topological spaces: specialization, saturation, compactness,
irreducible closed sets, Borel atoms, and the T0 quotient.

Points are indexed; subsets are bitmasks; a topology is a frozenset of
open bitmasks validated to contain the empty set and the whole space
and to be closed under binary union and intersection.  Finite spaces
are Alexandrov: arbitrary intersections of opens are open, so the
saturated sets coincide with the open sets and the specialization
preorder determines everything.  Several operations exploit that
collapse but still compute the general formula and cross-check the two
routes, raising CrossCheckError on disagreement; the degeneracy itself
is surfaced to callers rather than silently assumed.

`analysis(space)` alone computes the derived structure: saturations
(by both routes, once per mask), the compact saturated sets, the Borel
structure and the T0 flag.  Compactness is stated, not computed: on a
finite space every subset is compact (see _compact_masks), and the
literal open-cover test survives only as a test oracle, in oracles.py.
The Hofmann-Mislove check and the T0 reflection read that structure
instead of recomputing it.

Continuous maps between finite spaces are the maps monotone for the
specialization preorders, so the T0 reflection enumerates those and
checks each against the preimage-of-opens definition, into one factor
target per homeomorphism class (FiniteSpace.canonical_form); brute
force over all tuples survives only in oracles.py.  Filtered
subfamilies are found on index bitmasks, testing each one against the
pairs of members that have no member inside their intersection.
"""

from __future__ import annotations

import itertools
import random
import zlib
from collections import namedtuple
from functools import cached_property, lru_cache

from .errors import BudgetError, CrossCheckError, InputError, ValidationError
from .order import _ENUM_NAMES, _relation_walk, bits

# Families of subsets are enumerated exhaustively up to this size and
# deterministically sampled beyond it.
FAMILY_ENUM_LIMIT = 12
FAMILY_SAMPLE = 256

_POINT_LIMIT = 8


def stable_seed(*parts):
    """Deterministic RNG seed derived from the reprs of the parts."""
    return zlib.crc32("|".join(repr(p) for p in parts).encode())


def _subfamily_masks(members, label):
    """Nonempty subfamilies of members as masks over their indices: all
    of them when feasible, else a deterministic sample.  Returns
    (masks, exhaustive)."""
    k = len(members)
    if k <= FAMILY_ENUM_LIMIT:
        return range(1, 1 << k), True
    rng = random.Random(stable_seed("subfamilies", label, members))
    masks = []
    for _ in range(FAMILY_SAMPLE):
        size = rng.randint(1, k)
        masks.append(sum(1 << i for i in rng.sample(range(k), size)))
    return masks, False


def subfamily_pool(members, label):
    """Nonempty subfamilies of members: all of them when feasible, else
    a deterministic sample.  Returns (families, exhaustive)."""
    members = tuple(members)
    masks, exhaustive = _subfamily_masks(members, label)
    return tuple(tuple(members[i] for i in bits(m)) for m in masks), exhaustive


def filtered_subfamilies(members, label):
    """Subfamilies of members, sets as point bitmasks, filtered under
    reverse inclusion: every two members contain a third member of the
    family.  Returns (families, exhaustive).

    Only a pair {i, j} of unnested members can fail: a subfamily mask
    holding it must meet inside, the mask of the members within both
    members[i] and members[j].  Each mask is tested against those pairs
    only.
    """
    members = tuple(members)
    masks, exhaustive = _subfamily_masks(members, "filtered:" + label)
    below = [sum(1 << t for t, c in enumerate(members) if not c & ~s)
             for s in members]
    pairs = []
    for i, j in itertools.combinations(range(len(members)), 2):
        pair = 1 << i | 1 << j
        inside = below[i] & below[j]
        if not inside & pair:
            pairs.append((pair, inside))
    kept = [m for m in masks if all(m & pair != pair or m & inside
                                    for pair, inside in pairs)]
    return tuple(tuple(members[i] for i in bits(m)) for m in kept), exhaustive


def _check_point_budget(n):
    if n > _POINT_LIMIT:
        raise BudgetError(f"finite spaces support at most {_POINT_LIMIT} points")


class FiniteSpace:
    """A finite topological space with named points and bitmask opens."""

    is_finite = True

    def __init__(self, names, opens):
        names = tuple(names)
        n = len(names)
        if len(set(names)) != n:
            raise InputError("duplicate point names")
        _check_point_budget(n)
        full = (1 << n) - 1
        opens = frozenset(int(u) for u in opens)
        for u in opens:
            if u & ~full or u < 0:
                raise InputError("open set out of range")
        if 0 not in opens or full not in opens:
            raise ValidationError("a topology contains the empty set and the whole space")
        for u in opens:
            for v in opens:
                if u | v not in opens:
                    raise ValidationError("opens not closed under union",
                                          witness=(u, v))
                if u & v not in opens:
                    raise ValidationError("opens not closed under intersection",
                                          witness=(u, v))
        self.names = names
        self.n = n
        self.full = full
        self.opens = opens
        self.opens_list = tuple(sorted(opens))
        self.closed_list = tuple(sorted(full & ~u for u in opens))
        # up[x]: the least open containing x; down[x]: closure of {x}
        up, down = [], []
        for x in range(n):
            m = full
            for u in opens:
                if (u >> x) & 1:
                    m &= u
            up.append(m)
            c = 0
            for u in opens:
                if not (u >> x) & 1:
                    c |= u
            down.append(full & ~c)
        self.up = tuple(up)
        self.down = tuple(down)

    @classmethod
    def from_subbasis(cls, names, subbasis_masks):
        return generate_topology(names, subbasis_masks)

    @classmethod
    def discrete(cls, names):
        n = len(tuple(names))
        return cls(names, range(1 << n))

    @classmethod
    def indiscrete(cls, names):
        n = len(tuple(names))
        return cls(names, (0, (1 << n) - 1))

    @classmethod
    def sierpinski(cls):
        """Two points a, b; opens are the empty set, {b}, and the space."""
        return cls(("a", "b"), (0, 0b10, 0b11))

    def __eq__(self, other):
        return (isinstance(other, FiniteSpace)
                and self.names == other.names and self.opens == other.opens)

    def __hash__(self):
        return hash((self.names, self.opens))

    def __repr__(self):
        shown = ", ".join("{" + ",".join(self.point_names(u)) + "}"
                          for u in self.opens_list)
        return f"FiniteSpace({','.join(self.names)}; opens {shown})"

    @cached_property
    def canonical_form(self):
        """(n, least tuple of relabeled up-sets over all n! relabelings),
        equal exactly for homeomorphic spaces: a finite space is
        Alexandrov, so its up-sets determine its opens, names aside."""
        members = [tuple(bits(u)) for u in self.up]

        def relabeled(p):
            ups = [0] * self.n
            for x, ys in enumerate(members):
                ups[p[x]] = sum([1 << p[y] for y in ys])
            return tuple(ups)
        return self.n, min(map(relabeled, itertools.permutations(range(self.n))))

    # subsets by mask

    def mask(self, point_names):
        m = 0
        for p in point_names:
            try:
                m |= 1 << self.names.index(p)
            except ValueError:
                raise InputError(f"unknown point {p!r}") from None
        return m

    def point_names(self, mask):
        return tuple(self.names[i] for i in bits(mask))

    @property
    def predicates(self):
        return analysis(self).predicates

    def spec_le(self, x, y):
        """Specialization: every open containing x contains y."""
        return bool((self.up[x] >> y) & 1)

    def saturate(self, mask):
        """Intersection of all opens containing the set.

        Computed both as that intersection and as the union of the
        pointwise up-sets; in finite spaces the two agree because the
        union of up-sets is itself open.
        """
        inter = self.full
        for u in self.opens:
            if not mask & ~u:
                inter &= u
        via_points = 0
        for x in bits(mask):
            via_points |= self.up[x]
        if inter != via_points:
            raise CrossCheckError(
                f"saturation routes disagree on mask {mask:b}")
        return inter

    def closure(self, mask):
        """Smallest closed superset; equals the union of point closures."""
        biggest = 0
        for u in self.opens:
            if not u & mask:
                biggest |= u
        via_complement = self.full & ~biggest
        via_points = 0
        for x in bits(mask):
            via_points |= self.down[x]
        if via_complement != via_points:
            raise CrossCheckError(
                f"closure routes disagree on mask {mask:b}")
        return via_complement

    def interior(self, mask):
        m = 0
        for u in self.opens:
            if not u & ~mask:
                m |= u
        return m


def generate_topology(names, subbasis_masks):
    """Smallest topology containing the given subbasis.

    Closes under binary intersections, then under unions, after seeding
    with the empty set and the whole space.  The point budget is checked
    first: the closure can hold 2^n sets, and its pair loops square that.
    """
    names = tuple(names)
    n = len(names)
    _check_point_budget(n)
    full = (1 << n) - 1
    current = {0, full}
    for m in subbasis_masks:
        m = int(m)
        if m & ~full or m < 0:
            raise InputError("subbasis member out of range")
        current.add(m)
    while True:
        extra = {u & v for u in current for v in current} - current
        if not extra:
            break
        current |= extra
    while True:
        extra = {u | v for u in current for v in current} - current
        if not extra:
            break
        current |= extra
    return FiniteSpace(names, current)


def irreducible_closed_sets(space):
    """All irreducible closed sets, with quasisobriety and T0 flags.

    A nonempty closed C is irreducible when C inside a union of two
    closed sets forces C inside one of them.  The space is quasisober
    when each irreducible closed set is a point closure, and T0 when
    distinct points have distinct closures.
    """
    closeds = space.closed_list
    irr = []
    for c in closeds:
        if c == 0:
            continue
        ok = True
        for f in closeds:
            for g in closeds:
                if not c & ~(f | g) and c & ~f and c & ~g:
                    ok = False
        if ok:
            irr.append(c)
    quasisober = all(any(space.down[x] == c for x in range(space.n))
                     for c in irr)
    t0 = all(space.down[x] != space.down[y]
             for x in range(space.n) for y in range(x + 1, space.n))
    return tuple(irr), quasisober, t0


class HMReport(namedtuple("HMReport", (
        "binary_unions filtered_intersections open_escape "
        "families_checked exhaustive"))):
    """Outcome of the compact-saturated structure check."""

    __slots__ = ()

    @property
    def ok(self):
        return self.binary_unions and self.filtered_intersections and self.open_escape


def hofmann_mislove_check(space):
    """Check that compact saturated sets behave dually to opens:
    closed under binary unions and filtered intersections, and every
    filtered family whose intersection lands in an open has a member
    already inside that open."""
    qs = analysis(space).compact_saturated
    qset = set(qs)
    unions_ok = all(a | b in qset for a in qs for b in qs)
    fams, exhaustive = filtered_subfamilies(qs, f"hm:{space.names}:{sorted(space.opens)}")
    inter_ok = True
    escape_ok = True
    for fam in fams:
        inter = space.full
        for q in fam:
            inter &= q
        if inter not in qset:
            inter_ok = False
        for g in space.opens:
            if not inter & ~g and not any(not q & ~g for q in fam):
                escape_ok = False
    return HMReport(unions_ok, inter_ok, escape_ok, len(fams), exhaustive)


class BorelStructure(namedtuple("BorelStructure",
                                "atoms atom_labels atom_of_point sets")):
    """Atoms of the Borel algebra and the sets they generate.

    The atom of a point is the intersection of its saturation with its
    closure, i.e. its class under the equivalence identifying points
    with the same closure; every Borel set is a union of atoms.
    """

    __slots__ = ()


def borel_structure(space):
    """Compute the Borel algebra of a finite space.

    The algebra generated by the opens (compact saturated sets add
    nothing: they are unions of atoms too) is produced literally by
    closing under complement and binary union, then compared with the
    unions-of-atoms description; any mismatch is an error, as is a
    Borel set that contains a point without its whole atom.
    """
    atoms = []
    atom_of_point = [-1] * space.n
    for x in range(space.n):
        a = space.up[x] & space.down[x]
        if a not in atoms:
            atoms.append(a)
        atom_of_point[x] = atoms.index(a)
    order = sorted(range(len(atoms)), key=lambda i: atoms[i] & -atoms[i])
    atoms = [atoms[i] for i in order]
    rank = {old: new for new, old in enumerate(order)}
    atom_of_point = [rank[i] for i in atom_of_point]
    labels = tuple("/".join(space.point_names(a)) for a in atoms)

    generated = set(space.opens)
    while True:
        extra = {space.full & ~b for b in generated} - generated
        extra |= {a | b for a in generated for b in generated} - generated
        if not extra:
            break
        generated |= extra
    by_atoms = set()
    for k in range(1 << len(atoms)):
        m = 0
        for i in bits(k):
            m |= atoms[i]
        by_atoms.add(m)
    if generated != by_atoms:
        raise CrossCheckError("Borel algebra differs from unions of atoms")
    for b in generated:
        for x in bits(b):
            if atoms[atom_of_point[x]] & ~b:
                raise CrossCheckError(
                    f"Borel set {b:b} splits the class of point {space.names[x]}")
    return BorelStructure(tuple(atoms), labels, tuple(atom_of_point),
                          tuple(sorted(generated)))


class Reflection(namedtuple("Reflection",
                            "space quotient point_map class_masks")):
    """T0 quotient of a space together with the projection data."""

    __slots__ = ()

    def image_mask(self, mask):
        return _image(mask, self.point_map)

    def preimage_mask(self, mask):
        m = 0
        for i in bits(mask):
            m |= self.class_masks[i]
        return m


def t0_reflection(space, factor_targets=None):
    """Quotient by the equal-closure equivalence.

    Builds the quotient space on the atom classes, checks it is T0,
    checks that images and preimages of opens and of compact saturated
    sets stay open and compact saturated, and that taking images is a
    bijection between the Borel algebras preserving unions and
    complements.  When factor_targets (a list of T0 spaces) is given,
    every continuous map into the first target of each homeomorphism
    class (by canonical_form) is checked to factor through the
    projection by exactly one continuous map.  That covers the class:
    for a homeomorphism h of Y onto Y', the maps into Y' are the h o f,
    and h o f factors as h o g exactly when f factors as g.  The maps
    come from continuous_maps, which enumerates monotone maps; each
    factor is the map induced on the classes (see _check_factorization).
    The tests run the brute force oracles of oracles.py on every labeled
    target.
    """
    an = analysis(space)
    bs = an.borel
    point_map = bs.atom_of_point
    quotient = FiniteSpace(bs.atom_labels,
                           {_image(u, point_map) for u in space.opens})
    refl = Reflection(space, quotient, point_map, bs.atoms)
    qan = analysis(quotient)

    if not qan.predicates.t0:
        raise CrossCheckError("quotient is not T0")

    for u in space.opens:
        if refl.preimage_mask(refl.image_mask(u)) != u:
            raise CrossCheckError("projection does not fix a saturated set")
    qs_space = set(an.compact_saturated)
    qs_quotient = set(qan.compact_saturated)
    for q in an.compact_saturated:
        if refl.image_mask(q) not in qs_quotient:
            raise CrossCheckError("image of a compact saturated set is not one")
    for q in qan.compact_saturated:
        if refl.preimage_mask(q) not in qs_space:
            raise CrossCheckError("preimage of a compact saturated set is not one")

    images = {}
    for b in bs.sets:
        im = refl.image_mask(b)
        if refl.preimage_mask(im) != b:
            raise CrossCheckError("projection does not fix a Borel set")
        images[b] = im
    if sorted(images.values()) != list(qan.borel.sets) or len(set(images.values())) != len(images):
        raise CrossCheckError("Borel correspondence is not a bijection")
    for a in bs.sets:
        for b in bs.sets:
            if images[a | b] != images[a] | images[b]:
                raise CrossCheckError("Borel correspondence misses a union")
        if images[space.full & ~a] != quotient.full & ~images[a]:
            raise CrossCheckError("Borel correspondence misses a complement")

    if factor_targets is not None:
        seen = set()
        for target in factor_targets:
            if target.canonical_form not in seen:
                seen.add(target.canonical_form)
                for f in continuous_maps(space, target):
                    _check_factorization(refl, target, f)
    return refl


def _image(mask, point_map):
    m = 0
    for x in bits(mask):
        m |= 1 << point_map[x]
    return m


def continuous_maps(space, target):
    """All continuous maps, as tuples indexed by source point, in the
    lexicographic order of the tuples.

    On a finite (Alexandrov) space a map is continuous exactly when it
    is monotone for the specialization preorders (Stong, "Finite
    topological spaces", 1966).  The maps are built point by point, each
    point taking, in ascending order, the values monotone against the
    points already placed.  Each map is then checked against the
    definition, the preimage of every open being open; a monotone map
    that fails it raises CrossCheckError.
    """
    n = space.n
    t_up = [sum(1 << w for w in range(target.n) if target.spec_le(v, w))
            for v in range(target.n)]
    t_down = [sum(1 << w for w in range(target.n) if target.spec_le(w, v))
              for v in range(target.n)]
    # above[x], below[x]: the points before x that lie above, below x
    above = [[y for y in range(x) if space.spec_le(x, y)] for x in range(n)]
    below = [[y for y in range(x) if space.spec_le(y, x)] for x in range(n)]
    f = [0] * n

    def extend(x):
        if x == n:
            yield tuple(f)
            return
        allowed = (1 << target.n) - 1
        for y in above[x]:
            allowed &= t_down[f[y]]
        for y in below[x]:
            allowed &= t_up[f[y]]
        for v in bits(allowed):
            f[x] = v
            yield from extend(x + 1)

    # written out rather than through _is_continuous, so that a fault
    # there stays visible on the factor path it guards
    for g in extend(0):
        for w in target.opens:
            pre = 0
            for x in range(n):
                if (w >> g[x]) & 1:
                    pre |= 1 << x
            if pre not in space.opens:
                raise CrossCheckError(
                    f"monotone map {g} pulls an open back to a non-open set")
        yield g


def _check_factorization(refl, target, f):
    """Exactly one continuous map through the quotient reproduces f.

    A factor g satisfies g(point_map[x]) = f(x) for every point x.  The
    projection is surjective, so f fixes g on every class: g exists only
    if f is constant on each class, and is then the map f induces on the
    classes, read once per class.  No second factor can exist, so one
    continuity test of g decides between one factorization and none.
    """
    g = tuple(f[(m & -m).bit_length() - 1] for m in refl.class_masks)
    if (any(f[x] != g[c] for x, c in enumerate(refl.point_map))
            or not _is_continuous(refl.quotient, target, g)):
        raise CrossCheckError(
            f"map {f} admits 0 factorizations through the quotient")


def _is_continuous(space, target, f):
    for w in target.opens:
        pre = 0
        for x in range(space.n):
            if (w >> f[x]) & 1:
                pre |= 1 << x
        if pre not in space.opens:
            return False
    return True


TOPOLOGY_ENUM_LIMIT = 4


def enumerate_topologies(n):
    """All labeled topologies on n points: the Alexandrov topologies of
    the preorders, in the order of _relation_walk."""
    return _alexandrov_spaces(n, (0, 1, 2, 3))


def enumerate_t0_spaces(n):
    """All labeled T0 topologies on n points: the Alexandrov topologies
    of the partial orders, in the order of _relation_walk."""
    return _alexandrov_spaces(n, (0, 1, 2))


def _alexandrov_spaces(n, states):
    """The space whose opens are the up-closed sets of each relation of
    _relation_walk(n, states); finite spaces are exactly these, and the
    T0 ones are those of the antisymmetric relations (Stong, "Finite
    topological spaces", 1966)."""
    if not 0 <= n <= TOPOLOGY_ENUM_LIMIT:
        raise BudgetError(f"exhaustive topology enumeration supports "
                          f"0 <= n <= {TOPOLOGY_ENUM_LIMIT}")
    names = tuple(_ENUM_NAMES[:n])
    for up in _relation_walk(n, states):
        yield FiniteSpace(names, [m for m in range(1 << n)
                                  if all(not up[x] & ~m for x in bits(m))])


class SpacePredicates(namedtuple("SpacePredicates", (
        "t0 t1 quasisober sober discrete second_countable "
        "locally_compact sigma_compact separable metrizable "
        "completely_metrizable polish"))):
    """Topological side conditions, decided for the finite backend.

    Every finite space is second-countable, locally compact (the least
    open neighborhood of a point is compact), sigma-compact, and
    separable.  Metrizability collapses to discreteness: a finite
    metrizable space is T1, and finite T1 means every subset is open.
    """

    __slots__ = ()

    def as_dict(self):
        return self._asdict()


class SpaceAnalysis(namedtuple("SpaceAnalysis", (
        "space borel sat_table compact_masks "
        "compact_saturated compact_borel irreducible_closed "
        "predicates"))):
    """Everything the measure layer needs about one finite space."""

    __slots__ = ()

    @property
    def borel_masks(self):
        return self.borel.sets

    @property
    def atoms(self):
        return self.borel.atoms


def _compact_masks(space):
    """Every subset of a finite space is compact.

    Any open cover of a finite set is finite, so it is its own finite
    subcover; choosing for each point one covering member even gives a
    cover by at most one open per point.  The literal cover test,
    oracles._is_compact_literal, is kept as a test oracle for this
    statement.
    """
    return frozenset(range(space.full + 1))


@lru_cache(maxsize=None)
def analysis(space):
    """Precompute and cache the derived structure of a finite space."""
    sat_table = tuple(space.saturate(m) for m in range(space.full + 1))
    compact_masks = _compact_masks(space)
    qs = tuple(m for m in range(space.full + 1)
               if sat_table[m] == m and m in compact_masks)
    if set(qs) != space.opens:
        # Alexandrov collapse: saturated sets are exactly the opens
        raise CrossCheckError("compact saturated family differs from the opens")
    bs = borel_structure(space)
    irr, quasisober, t0 = irreducible_closed_sets(space)
    t1 = all(space.up[x] == 1 << x for x in range(space.n))
    discrete = len(space.opens) == space.full + 1
    if t1 != discrete:
        raise CrossCheckError("finite T1 space that is not discrete")
    preds = SpacePredicates(
        t0=t0, t1=t1, quasisober=quasisober, sober=quasisober and t0,
        discrete=discrete, second_countable=True, locally_compact=True,
        sigma_compact=True, separable=True, metrizable=discrete,
        completely_metrizable=discrete, polish=discrete)
    return SpaceAnalysis(space, bs, sat_table, compact_masks,
                         qs, bs.sets, irr, preds)
