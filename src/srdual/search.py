"""Upper-bound formulas and exhaustive search for the max diameter mu(d,n).

The leaves of the search are the sets of candidate facets (size-d vertex
sets) that cover all n vertices and hold {0,...,d-1}; every complex has
a relabeled copy holding that facet, so this isomorph rejection is free
and sound.  leaf_count(d, n) gives their number in closed form, and an
exhaustive run that visits another number raises ContractViolation.

Leaves are visited in blocks.  A block holds the covering leaves that
agree on all candidates but the last k (k = 16, or fewer on small
cells); position p of a block includes the candidate m-k+j exactly when
bit k-1-j of p is clear, so p = 0 includes all of them and positions
run in the old include-first DFS order, and a 2^k-bit int holds one bit
per position.  A generator yields the block prefixes in DFS order, with
the mask of their covering positions: the AND of per-vertex cover
patterns over the vertices the prefix misses.  The evaluator runs on
the block packed to the bytes of that mask, after the orbit filter
below, that hold a position to offer: packed position t is bit t & 7 of
the (t >> 3)-th such byte, so the order is kept.  _pack alone spells the
encoding, as one row per block candidate; the full block's rows feed the
generator and the filter, and an offered leaf reads its candidates off
the packed rows the evaluator ran on.

The search is rooted: it scores a leaf by ecc0, the eccentricity of
candidate 0 in its dual graph.  No ecc0 exceeds the diameter, and a
complex of diameter D has a copy whose {0..d-1} is one of two facets at
distance D, a leaf of ecc0 D; so the largest ecc0 over the connected
(S2) leaves is mu(d,n).

One evaluator per (d, n) keeps the incumbent and runs every leaf rule
but the last two on whole blocks, through one bit-sliced BFS that runs
in all leaves of a block at once, each leaf from its own start node.
It runs from candidate 0, which every leaf holds, for connectivity and
ecc0, and drops the leaves of ecc0 below mu.  It runs once per face
star for (S2): for each face s with 1 <= |s| <= d-2, the chosen facets
holding s must be connected (those holding a (d-1)-face are pairwise
adjacent), so each leaf searches from its lowest chosen facet of the
star, along the dual-graph edges inside the star; the smallest stars go
first and a block ends once no leaf passes.  Then at most two kinds of
leaf go, in position order and with their ecc0, through the proved
bound and the tie-break: the smaller facet count, then vertex
invariants read off the star masks, then the canonical form.  First the
lowest leaf of ecc0 above the proved bound, which raises as a
leaf-by-leaf run would (no rule drops an ecc0 above mu); then the
block's best class, its leaves of largest ecc0 with the fewest facets
among those, unless that ecc0 is below mu, or is mu with more facets
than the incumbent.  The incumbent is the earliest minimum of (-ecc0,
pre-key, canonical key), and the pre-key starts with the facet count,
so each leaf of the class beats every other leaf of the block: after
each block the incumbent is the one a leaf-by-leaf run would leave.
The result reports the witness's diameter, through the proved bound
again.  On a budgeted run it may exceed the witness's ecc0; an
exhaustive run where it does raises ContractViolation, or BadParams if
it resumed a checkpoint, whose trusted tasks may hold the leaf of
largest ecc0.

A flat loop over the tasks feeds the blocks to the evaluator, counts the
covering positions, keeps only the lowest ones a node budget allows and
reads the clock once per block.  Tasks run in ascending order, bit l of
a task saying that candidate 1+l is in, so the search visits the leaves
in lex order of candidates levels, ..., 1, each excluded first, then of
candidates levels+1, ..., m-1, each included first.  Between the budget
and the evaluator sits the orbit filter: the group G = S_d x S_(n-d) of
relabelings that fix {0..d-1} permutes the leaves, and a leaf goes on
only if no transposition in G (of two vertices below d, or two from d
on) maps it to a leaf visited earlier; the leaf count and the node
budget still count every covering leaf.  This changes no output at any
budget cut.  Every dropped leaf has an isomorphic copy earlier, so the
first leaf of each G-orbit is kept.  The incumbent after any prefix of
the visit order is the earliest leaf that minimises (-ecc0, pre-key,
canonical key); G fixes candidate 0, so ecc0 is G-invariant, and the
other two are isomorphism-invariant, so no leaf of its orbit comes
before it, and it is kept.  So is the earliest leaf above the proved
bound.  The filter runs per block in two stages: the block's fixed
prefix decides each transposition up to the first pair of candidates it
moves that touches the block, dropping the whole block or passing it;
the transpositions still open walk the remaining pairs with an "equal so
far" mask over the block's positions.

Once there is an incumbent, each finished task leaves a snapshot of the
finished tasks and the incumbent, so a checkpoint that marks tasks done
always holds one.  The incumbent is recorded with its ecc0, and
re-enters through the evaluator as a block of one position, which must
give it that ecc0.  The latest snapshot is written once
_CHECKPOINT_SECONDS have passed since the search started or the last
write, and when the task loop is left by any path with it not yet
written, so a run leaves the file a write per task would leave; a hard
kill or a power loss can lose the last _CHECKPOINT_SECONDS of tasks.
Each finished task is recorded with its leaf count (`done T L`), and a
resumed run starts its leaf count at their sum, reported as
resumed_leaves: it ends with an uninterrupted run's total, a node budget
counts the recorded leaves, and a resumed exhaustive run that does not
count leaf_count(d, n) leaves raises BadParams.  A run is exhaustive
exactly when no budget stopped it before a leaf; an exhaustive run
always has a witness, since the complex of all candidates is a connected
(S2) leaf.  A checkpoint that is a directory, or whose directory is
missing or not writable, raises BadParams before the first task, as does
one that is not None, a non-empty str or an os.PathLike.
"""

from __future__ import annotations

import os
import re
import tempfile
import time
from dataclasses import dataclass
from functools import cache, reduce
from itertools import chain, combinations
from math import comb, isqrt
from numbers import Real
from operator import and_, or_
from typing import Optional

from .complexes import (MAX_UNIVERSE, SimplicialComplex, _is_int, mask_of,
                        star_masks, vertices_of)
from .errors import BadParams, BoundViolation, ContractViolation
from .dual_graph import UNBOUNDED, build_dual_graph, diameter


@dataclass(frozen=True)
class UpperBounds:
    """Every applicable diameter bound for the given parameters."""

    d: int
    n: int
    entries: dict[str, int]  # bound name -> value, for the bounds that apply
    best: int


def _check_cell(d, n):
    if not (_is_int(d) and _is_int(n) and 2 <= d < n):
        raise BadParams("need integers 2 <= d < n, not d=%r n=%r" % (d, n))


def bounds(d: int, n: int) -> UpperBounds:
    _check_cell(d, n)
    k = n - d
    vals: dict[str, int] = {}
    if d == 3:
        vals["thm32"] = max(2 * n - 10, n - 2)
    vals["thm35"] = (1 << (d - 2)) * k
    if k == 5:
        vals["thm36"] = 8
    if k == 6:
        vals["thm37"] = 14
    if k >= 4:
        # the floor of 3 * 2^((k-5)/2) * k, as the root of an integer; the
        # halving argument behind it needs codim >= 4 (below that the
        # floor undercuts true diameters, e.g. codim 1).
        vals["thm38"] = isqrt((9 * k * k << (k - 4)) >> 1)
    if k == 3:
        vals["codim3"] = 3
    if k == 4:
        vals["codim4"] = 6
    if k >= 2 and (k, 2 * k) != (d, n):
        # at (k, 2k) the reduction is a fixed point, so this recurses once
        vals["klee_walkup_reduced"] = bounds(k, 2 * k).best
    best = min(vals.values())
    return UpperBounds(d, n, vals, best)


@cache
def _best_bound(d: int, n: int) -> int:
    """bounds(d, n).best, derived once per cell."""
    return bounds(d, n).best


def verify_bounds(cx: SimplicialComplex, diam: Optional[int] = None) -> bool:
    """Blanket invariant: no complex may beat the proved upper bounds.

    The best bound of each (d, n) cell is derived once and then read
    from a cache; `bounds` itself still builds a fresh `UpperBounds`.
    """
    if not (diam is None or diam is UNBOUNDED or _is_int(diam)):
        raise BadParams("diameter must be an integer, not %r" % (diam,))
    d = cx.d
    if d is None or d < 2 or d >= cx.n:
        return True
    if diam is None:
        diam = diameter(build_dual_graph(cx))
    if diam is UNBOUNDED:
        return True
    return diam <= _best_bound(d, cx.n)


@dataclass(frozen=True)
class CanonicalKey:
    facets: tuple[int, ...]
    exact: bool


#: canonical_form is exact up to this many vertices; beyond it the key
#: is an invariant hash only.
EXACT_CANONICAL_N = 12


def _vertex_invariants(stars):
    """Per-vertex (degree, co-member degree multiset) for class pruning.

    stars[v] is the mask of the facets holding v.  The multiset holds
    deg[w] once for every facet that holds both v and some w != v.
    """
    deg = [s.bit_count() for s in stars]
    by_deg = sorted(range(len(stars)), key=deg.__getitem__)
    prof = []
    for v, sv in enumerate(stars):
        co = []
        for w in by_deg:
            if w != v:
                co += [deg[w]] * (sv & stars[w]).bit_count()
        prof.append((deg[v], tuple(co)))
    return prof


def _prekey(stars, size):
    """Cheap isomorphism-invariant total pre-order on complexes.

    It starts with the facet count, so the search compares sizes first.
    """
    return (size, tuple(sorted(_vertex_invariants(stars))))


def canonical_form(cx: SimplicialComplex) -> CanonicalKey:
    """Lex-min sorted facet list over all vertex relabelings.

    Exact for n <= EXACT_CANONICAL_N.  Vertices are grouped into classes
    with equal invariants, the classes are laid out in sorted invariant
    order, and label l may only go to a vertex of the class that owns l.
    Labels are placed from lowest to highest.  Once labels 0..l are
    placed, the facets whose vertices all carry labels are final and
    smaller than any facet holding a later label, so their sorted masks
    are a fixed prefix of the key; only the partial labelings with the
    least prefix are extended.  That prunes every relabeling the
    invariants and the prefix tell apart; when all of them tie, as on a
    complete complex, it is still exponential.  Beyond EXACT_CANONICAL_N
    the key is invariant-based only and flagged inexact.
    """
    n = cx.n
    facets = cx.facets
    stars = star_masks(facets, n)
    prof = _vertex_invariants(stars)
    if n > EXACT_CANONICAL_N:
        return CanonicalKey((hash(tuple(sorted(prof))),), exact=False)
    groups: dict[tuple, list[int]] = {}
    for v in range(n):
        groups.setdefault(prof[v], []).append(v)
    # the class owning each label; block order must itself be
    # relabeling-invariant, so blocks follow the sorted profile keys
    owners = [g for k in sorted(groups) for g in [groups[k]] * len(groups[k])]
    # keys compare prefix + tail, so a longer prefix beats its own
    # prefix: the mask it fixes next is below 1 << (l + 1), and every
    # mask its rival still leaves open is not
    tail = (1 << n,)
    # partial labelings (prefix, labeled vertices, label bit of each
    # vertex); the empty facet, if any, is final from the start
    level = [(tuple(f for f in facets if not f), 0, (0,) * n)]
    for label, owner in enumerate(owners):
        bit = 1 << label
        best = None
        kept = []
        for prefix, labeled, lbits in level:
            for v in owner:
                if labeled >> v & 1:
                    continue
                done = labeled | 1 << v
                fixed = []
                s = stars[v]
                while s:
                    b = s & -s
                    rest = facets[b.bit_length() - 1] ^ 1 << v
                    if not rest & ~done:
                        img = bit
                        while rest:
                            r = rest & -rest
                            img |= lbits[r.bit_length() - 1]
                            rest ^= r
                        fixed.append(img)
                    s ^= b
                ext = prefix + tuple(sorted(fixed))
                key = ext + tail
                if best is None or key < best:
                    best = key
                    kept = [(ext, done, lbits, v)]
                elif key == best:
                    kept.append((ext, done, lbits, v))
        level = [(ext, done, lbits[:v] + (bit,) + lbits[v + 1:])
                 for ext, done, lbits, v in kept]
    return CanonicalKey(level[0][0], exact=True)


@dataclass
class SearchBudget:
    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None


@dataclass
class SearchResult:
    d: int
    n: int
    mu: int
    witness: Optional[SimplicialComplex]
    exhaustive: bool
    nodes_explored: int
    elapsed: float
    resumed_leaves: int = 0  # leaves of the tasks a checkpoint marked done


CHECKPOINT_VERSION = "mu-search-v2"
_CHECKPOINT_SECONDS = 1.0  # least time between two checkpoint writes
_TASK_LEVELS = 3  # decisions fixed per task: 2^_TASK_LEVELS tasks
_BLOCK_LEVELS = 16  # decisions a block varies: up to 2^_BLOCK_LEVELS leaves
_DONE_LINE = re.compile(r"done (\d+) (\d+)")
_INCUMBENT_LINE = re.compile(r"incumbent (\d+)((?: [0-9a-f]+)*)")


def _task_levels(d, n):
    """Candidates after the forced first facet whose choice a task fixes."""
    return min(_TASK_LEVELS, comb(n, d) - 1)


def _block_levels(d, n):
    """Candidates at the end of the order whose choice a block varies."""
    return min(_BLOCK_LEVELS, comb(n, d) - 1 - _task_levels(d, n))


def _read_checkpoint(path, d, n):
    """The finished tasks of a checkpoint, each with its leaf count, and
    its incumbent (mu, facets), or (-1, None) if it holds none."""
    done: dict[int, int] = {}
    incumbent = (-1, None)
    try:
        with open(path, errors="replace") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except FileNotFoundError:
        return done, incumbent
    if len(lines) < 2 or lines[0] != CHECKPOINT_VERSION:
        # mu-search-v1 files too: they record no leaf counts
        raise BadParams("checkpoint %s is not a %s file"
                        % (path, CHECKPOINT_VERSION))
    header = lines[1].split()
    if header != ["d=%d" % d, "n=%d" % n]:
        raise BadParams("checkpoint is for different parameters")
    tasks = 1 << _task_levels(d, n)
    for ln in lines[2:]:
        if ((m := _DONE_LINE.fullmatch(ln)) and int(m[1]) < tasks
                and int(m[1]) not in done):
            done[int(m[1])] = int(m[2])
        elif m := _INCUMBENT_LINE.fullmatch(ln):
            incumbent = (int(m[1]), tuple(int(x, 16) for x in m[2].split()))
        else:
            raise BadParams("bad checkpoint line: %r" % ln)
    if done and incumbent[1] is None:
        raise BadParams("checkpoint marks tasks done but holds no incumbent")
    return done, incumbent


def _write_checkpoint(path, d, n, done, incumbent):
    """Replace the checkpoint atomically: a crash mid-write keeps the old one."""
    lines = [CHECKPOINT_VERSION, "d=%d n=%d" % (d, n)]
    for t in sorted(done):
        lines.append("done %d %d" % (t, done[t]))
    mu, facets = incumbent
    lines.append("incumbent %d %s" % (mu, " ".join("%x" % f for f in facets)))
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with open(fd, "w") as fh:
            fh.write("\n".join(lines) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _sliced_bfs(nbrs, pres, frontier):
    """Bit-sliced BFS in every leaf of a block at once.

    Bit p of pres[i] says that leaf p holds node i, and nbrs[i] lists the
    neighbours of node i.  `frontier` maps each start node to the mask of
    the leaves that start there, each leaf at one node at most; the
    search runs in those leaves.  Returns `far`: far[r] is the mask of the
    leaves that hold a node farther than r from their start (or one that
    it does not reach), until no leaf grows or every node is reached;
    later levels equal the last.  A neighbour that is reached or absent
    in every leaf is not pushed.
    """
    started = reduce(or_, frontier.values(), 0)
    todo = [p & started for p in pres]  # leaves in which node i is unreached
    for i, f in frontier.items():
        todo[i] ^= todo[i] & f
    far = [reduce(or_, todo, 0)]
    while far[-1]:
        reach: dict[int, int] = {}
        for j, f in frontier.items():
            for i in nbrs[j]:
                if todo[i]:
                    reach[i] = reach.get(i, 0) | f
        frontier = {}
        for i, f in reach.items():
            f &= todo[i]
            if f:
                todo[i] ^= f
                frontier[i] = f
        if not frontier:
            break
        far.append(reduce(or_, todo, 0))
    return far


@cache
def _packing(k):
    """Tables that pack a block of 2^k positions to the bytes that hold one.

    Position 8i + u is bit u of byte i.  The first table translates each
    nonzero byte to 0xff, giving the mask of the kept bytes.  Byte i of
    the ints lo, hi and pops is 0x80 | (i & 0x7f), 0x80 | i >> 7 and 1 +
    the set bits of i; none is 0, so one masked to the kept bytes, less
    its zero bytes, holds one byte per kept byte.  rows[b] translates
    such a byte into the packed positions with bit b clear: bits 0-2 are
    those of u, bits 3-9 bits 0-6 of lo's byte, bits 10-15 bits 0-5 of
    hi's.  at_least[c] translates a byte of pops into the packed
    positions with at least c set bits.
    """
    size = (1 << k) + 7 >> 3
    lo, hi, pops = (int.from_bytes(bytes(map(f, range(size))), "little")
                    for f in (lambda i: 0x80 | i & 0x7F,
                              lambda i: 0x80 | i >> 7,
                              lambda i: 1 + i.bit_count()))
    clear = [sum(1 << u for u in range(8) if not u >> b & 1) for b in range(3)]
    rows = [bytes(clear[b] if b < 3 else 0 if v >> (b - 3) % 7 & 1 else 0xFF
                  for v in range(256)) for b in range(k)]
    at_least = [bytes(sum(1 << u for u in range(8) if v + u.bit_count() > c)
                      for v in range(256)) for c in range(k + 1)]
    return b"\0" + b"\xff" * 255, lo, hi, pops, rows, at_least


def _pack(covers, k):
    """A block's positions packed to the bytes of `covers` that hold one.

    Returns (covers, inc, pops) in packed positions: inc[j] is the mask
    of the positions that include the block's candidate j, those whose
    block position has bit k-1-j clear, and pops the bytes at_least
    reads, one per kept byte.  Packing keeps the positions in order.
    """
    nonzero, lo, hi, pops, rows, _ = _packing(k)
    size = (1 << k) + 7 >> 3
    held = covers.to_bytes(size, "little")
    kept = int.from_bytes(held.translate(nonzero), "little")
    lo, hi, pops = ((kept & t).to_bytes(size, "little").translate(None, b"\0")
                    for t in (lo, hi, pops))
    covers = int.from_bytes(held.translate(None, b"\0"), "little")
    inc = [covers & int.from_bytes((lo if b < 10 else hi).translate(rows[b]),
                                   "little") for b in range(k - 1, -1, -1)]
    return covers, inc, pops


@cache
def _rows(k):
    """The rows _pack gives the full block of 2^k positions, which packing
    leaves in place: the generator's and the orbit filter's inc."""
    return tuple(_pack((1 << (1 << k)) - 1, k)[1])


class _Leaves:
    """The leaf rules of one mu(d,n) search and the incumbent they keep.

    Candidates are the size-d vertex sets in combinations order; a leaf
    is the mask of the candidate indices it chooses.  Leaves are offered
    a block at a time.
    """

    def __init__(self, d, n):
        self.d, self.n = d, n
        # the complex of all candidates is only a carrier for the dual graph
        self.cands = tuple(mask_of(c) for c in combinations(range(n), d))
        m = len(self.cands)
        adj = build_dual_graph(SimplicialComplex(n, self.cands)).adjacency
        self.nbrs = tuple(tuple(j for j in range(m) if a >> j & 1)
                          for a in adj)
        self.star = star_masks(self.cands, n)  # candidate-index mask per vertex
        # the candidate indices holding each face s with 1 <= |s| <= d-2,
        # smallest face star first, each with its neighbour lists cut
        # down to the star
        face_stars = sorted((reduce(and_, (self.star[v] for v in s))
                             for k in range(1, d - 1)
                             for s in combinations(range(n), k)),
                            key=int.bit_count)
        self.face_stars = []
        for fs in face_stars:
            star = tuple(i for i in range(m) if fs >> i & 1)
            self.face_stars.append(
                (star, {i: tuple(j for j in self.nbrs[i] if fs >> j & 1)
                        for i in star}))
        self.best_bound = bounds(d, n).best
        # the incumbent: ecc0, witness, invariant pre-key, canonical key
        self.mu, self.witness, self.prekey, self.key = -1, None, None, None

    def evaluate(self, pres, covers):
        """Run every leaf rule but the bound gate and the tie-break.

        Bit p of pres[i] says that leaf p holds candidate i, and `covers`
        is the mask of the leaves, each holding candidate 0.  Returns
        (live, wider): the mask of the connected (S2) leaves of ecc0 >= mu,
        and wider[r], that of the live leaves of ecc0 > r, up to a level
        that holds none.  The incumbent is only read.
        """
        nbrs = self.nbrs
        # candidate 0 is in every leaf: one BFS from it gives connectivity
        # and ecc0.  far0[r-1] holds the leaves of ecc0 >= r, and a leaf of
        # ecc0 mu may tie
        far0 = _sliced_bfs(nbrs, pres, {0: covers})
        live = covers ^ far0[-1]
        if self.mu >= 1:
            live &= far0[min(self.mu - 1, len(far0) - 1)]
        # (S2): in each face star, the leaf's chosen candidates must all be
        # reached from the lowest of them
        for star, star_nbrs in self.face_stars:
            sub, frontier, seen = [0] * len(nbrs), {}, 0
            for i in star:
                sub[i] = p = pres[i] & live
                if first := p ^ (p & seen):
                    frontier[i] = first
                    seen |= first
            live ^= _sliced_bfs(star_nbrs, sub, frontier)[-1]
            if not live:
                break
        return live, [f & live for f in far0]

    def block(self, prefix, covers, k):
        """Offer the covering leaves of one block to the incumbent.

        The block's leaves choose the candidates below m - k as `prefix`
        does; position p chooses the last k as _pack says, and `covers` is
        the mask of the positions to offer.  evaluate runs on the positions
        packed by _pack; of the leaves it keeps, the lowest above the
        proved bound and then the best class go to _offer, as the module
        docstring says, each read off the packed rows evaluate ran on.
        """
        covers, inc, pops = _pack(covers, k)
        base = len(self.nbrs) - k
        pres = [covers if prefix >> i & 1 else 0 for i in range(base)]
        live, wider = self.evaluate(pres + inc, covers)
        if not live:
            return

        def offer(packed, ecc):
            while packed:
                b = packed & -packed
                packed ^= b
                self._offer(prefix | sum(1 << base + j for j, row
                                         in enumerate(inc) if row & b), ecc)
        if over := wider[min(self.best_bound, len(wider) - 1)]:
            b = over & -over
            offer(b, sum(1 for w in wider if w & b))
        # the largest ecc0, then the most set bits: the fewest facets
        top, ecc = live, 0
        while wider[ecc]:
            top, ecc = wider[ecc], ecc + 1
        at_least, c = _packing(k)[-1], k
        while not (best := top & int.from_bytes(pops.translate(at_least[c]),
                                                "little")):
            c -= 1
        if ecc > self.mu or ecc == self.mu and (
                prefix.bit_count() + k - c <= self.prekey[0]):
            offer(best, ecc)

    def gate(self, cx, diam):
        """The proved bound: raise BoundViolation if `diam`, the diameter of
        cx or a lower bound on it, exceeds it."""
        if diam > self.best_bound:
            raise BoundViolation(
                "diameter %d or more exceeds proved bound %d for d=%d n=%d: "
                "%r" % (diam, self.best_bound, self.d, self.n, cx), cx)

    def _offer(self, chosen, ecc):
        """Offer one connected (S2) leaf of ecc0 `ecc` to the incumbent;
        block offers only a leaf that beats or ties the incumbent."""
        facets = tuple(sorted(self.cands[i] for i in vertices_of(chosen)))
        cx = SimplicialComplex(self.n, facets)
        self.gate(cx, ecc)
        # a tie keeps the minimal witness under (invariant pre-key,
        # canonical key); the full canonicalization only runs inside the
        # minimal invariant class
        pk = _prekey([s & chosen for s in self.star], len(facets))
        if ecc == self.mu and pk > self.prekey:
            return
        if ecc > self.mu or pk < self.prekey:
            self.mu, self.witness, self.prekey, self.key = ecc, cx, pk, None
        else:
            if self.key is None:
                self.key = canonical_form(self.witness).facets
            key = canonical_form(cx).facets
            if key < self.key:
                self.witness, self.key = cx, key

    def resume(self, mu, facets):
        """Offer a checkpoint's incumbent to a fresh evaluator, as a leaf.

        It must be a leaf, holding candidate 0, pass every rule and have
        ecc0 mu; it is offered as a block of one position.
        """
        bits = {c: 1 << i for i, c in enumerate(self.cands)}
        chosen = reduce(or_, (bits.get(f, 0) for f in facets), 0)
        if (chosen.bit_count() == len(facets) and chosen & 1
                and reduce(or_, facets, 0) == (1 << self.n) - 1):
            self.block(chosen, 1, 0)
        if self.witness is None or self.mu != mu:
            raise BadParams("checkpoint incumbent is not a connected (S2) "
                            "cover by distinct %d-sets, holding the first, "
                            "of ecc0 %d" % (self.d, mu))


def _blocks(cands, levels, k):
    """blocks(task), which yields the blocks of one task in include-first
    DFS order; the tables they share are built once, for every task.

    A leaf is a mask of candidate indices whose candidates cover every
    vertex.  Candidate 0, {0..d-1}, is in every leaf; bit l of `task`
    says whether candidate 1 + l is.  A block fixes the candidates below
    m - k as the mask `prefix`; its position p includes candidate
    m - k + j when bit k-1-j of p is clear, so positions run in the same
    include-first order.  Yields (prefix, covers), covers the nonzero
    mask of positions whose leaves cover every vertex.  A branch ends as
    soon as the candidates still open cannot cover the vertices still
    missing.
    """
    m = len(cands)
    base = m - k
    # suffix_cover[i] = union of candidate vertex masks from index i on
    suffix_cover = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix_cover[i] = suffix_cover[i + 1] | cands[i]
    full = suffix_cover[0]
    # hits[v]: the positions whose block candidates hold vertex v
    inc, block_cands = _rows(k), cands[base:]
    hits = [reduce(or_, (s for s, c in zip(inc, block_cands) if c >> v & 1), 0)
            for v in range(full.bit_length())]
    every = (1 << (1 << k)) - 1

    def blocks(task):
        chosen, covered = 1, cands[0]
        for lvl in range(levels):
            if task >> lvl & 1:
                chosen |= 2 << lvl
                covered |= cands[1 + lvl]
        stack = [(1 + levels, chosen, covered)]
        while stack:
            idx, chosen, covered = stack.pop()
            if idx == base:
                covers, missing = every, full & ~covered
                while missing and covers:
                    b = missing & -missing
                    covers &= hits[b.bit_length() - 1]
                    missing ^= b
                if covers:
                    yield chosen, covers
            elif covered | suffix_cover[idx] == full:
                stack.append((idx + 1, chosen, covered))
                stack.append((idx + 1, chosen | 1 << idx,
                              covered | cands[idx]))
    return blocks


class _Orbits:
    """The orbit filter: it keeps a leaf x only if no transposition tau of
    G maps it to a leaf visited earlier.

    G, the relabelings that fix {0..d-1} as a set, permutes the leaves;
    its transpositions swap two vertices below d or two from d on.  The
    search visits leaves in lex order of the candidates levels, ..., 1,
    each excluded first, then levels+1, ..., m-1, each included first.
    tau(x) holds candidate i exactly when x holds tau(i), so x and tau(x)
    first differ at the earlier candidate, in that order, of a pair
    {i, tau(i)} that x holds one of.  Each transposition is kept as its
    moved pairs (w, o), one per pair, in that order: tau(x) comes first
    if x holds w and not o, and x comes first if it holds o and not w.
    `head` is the leading run of pairs below the block candidates, which
    the block's prefix decides for all its leaves; `tail` is the rest.
    """

    def __init__(self, d, n, cands, levels, k):
        m = len(cands)
        self.base, self.inc = m - k, _rows(k)
        index = {c: i for i, c in enumerate(cands)}
        self.swaps = []
        for a, b in chain(combinations(range(d), 2),
                          combinations(range(d, n), 2)):
            ab = 1 << a | 1 << b
            pairs, later = [], set()
            for i in chain(range(levels, 0, -1), range(levels + 1, m)):
                if (cands[i] & ab).bit_count() == 1 and i not in later:
                    j = index[cands[i] ^ ab]
                    later.add(j)
                    pairs.append((i, j) if i <= levels else (j, i))
            cut = next((p for p, pair in enumerate(pairs)
                        if max(pair) >= self.base), len(pairs))
            self.swaps.append((pairs[:cut], pairs[cut:]))

    def leaders(self, prefix, covers):
        """The positions of `covers` in the block `prefix` that no
        transposition maps to an earlier leaf, as a mask."""
        x = None  # x[i]: the positions of covers holding candidate i
        for head, tail in self.swaps:
            tau_first = 0  # 1 if tau(x) comes first, -1 if x does
            for w, o in head:
                if tau_first := (prefix >> w & 1) - (prefix >> o & 1):
                    break
            if tau_first > 0:
                return 0  # in every leaf of the block
            if tau_first < 0:
                continue
            if x is None:  # covers only shrinks, and eq stays inside it
                x = [prefix >> i & 1 and covers for i in range(self.base)]
                x += self.inc
            eq = covers  # the leaves in which x and tau(x) agree so far
            for w, o in tail:
                xw = x[w]
                first = eq & (xw ^ x[o])  # x and tau(x) first differ here
                covers ^= covers & first & xw
                eq ^= first
                if not eq:
                    break
            if not covers:
                return 0
        return covers


def _lowest(mask, count):
    """The lowest `count` set bits of `mask`, 0 < count < its popcount."""
    lo, hi = count, mask.bit_length()
    while lo < hi:
        mid = (lo + hi) // 2
        if (mask & ((1 << mid) - 1)).bit_count() < count:
            lo = mid + 1
        else:
            hi = mid
    return mask & ((1 << lo) - 1)


def leaf_count(d: int, n: int) -> int:
    """The number of leaves of enumerate_mu(d, n).

    The leaves are the sets of d-sets that hold {0..d-1} and cover all n
    vertices.  Inclusion-exclusion over the n - d vertices outside that
    facet: the sets that miss k given ones choose freely among the other
    C(n-k, d) - 1 candidates.
    """
    _check_cell(d, n)
    r = n - d
    return sum((-1) ** k * comb(r, k) * 2 ** (comb(n - k, d) - 1)
               for k in range(r + 1))


def enumerate_mu(d: int, n: int, budget: Optional[SearchBudget] = None,
                 checkpoint: str | os.PathLike | None = None) -> SearchResult:
    """Max dual-graph diameter over (S2) pure complexes using all n vertices.

    Exhaustive when no budget stopped the search before a leaf; otherwise
    returns the best complex found so far with exhaustive=False.
    """
    _check_cell(d, n)
    if n > MAX_UNIVERSE:
        raise BadParams("need n <= %d" % MAX_UNIVERSE)
    if budget is None:
        budget = SearchBudget()
    elif not isinstance(budget, SearchBudget):
        raise BadParams("budget must be a SearchBudget, not %r" % (budget,))
    max_nodes, max_seconds = budget.max_nodes, budget.max_seconds
    for value, kind in ((max_nodes, int), (max_seconds, Real)):
        if value is not None and (not isinstance(value, kind)
                                  or isinstance(value, bool)):
            raise BadParams("search budgets must be numbers, not %r" % (value,))
    if (max_nodes is not None and max_nodes < 0
            or max_seconds is not None and not max_seconds >= 0):  # NaN too
        raise BadParams("search budgets must be >= 0")
    if isinstance(checkpoint, os.PathLike):
        checkpoint = os.fspath(checkpoint)
    if checkpoint == "" or not isinstance(checkpoint, (str, type(None))):
        raise BadParams("checkpoint must be a non-empty path, not %r"
                        % (checkpoint,))
    if checkpoint:
        folder = os.path.dirname(os.path.abspath(checkpoint))
        if (os.path.isdir(checkpoint) or not os.path.isdir(folder)
                or not os.access(folder, os.W_OK | os.X_OK)):
            raise BadParams("checkpoint %s: not a file in a writable "
                            "directory" % checkpoint)
    t_start = time.monotonic()
    leaves = _Leaves(d, n)
    levels = _task_levels(d, n)
    k = _block_levels(d, n)
    orbits = _Orbits(d, n, leaves.cands, levels, k)
    blocks = _blocks(leaves.cands, levels, k)
    done: dict[int, int] = {}  # finished task -> its leaf count
    if checkpoint:
        done, (ck_mu, ck_facets) = _read_checkpoint(checkpoint, d, n)
        if ck_facets is not None:
            leaves.resume(ck_mu, ck_facets)
    resumed = bool(done)

    # a resumed run counts the leaves of the tasks it skips, so it ends
    # with an uninterrupted run's total, and a node budget counts them too
    resumed_leaves = nodes = sum(done.values())
    stopped = False
    # the latest (done, incumbent) not yet written, and the last write
    snapshot, written = None, t_start
    try:
        for t in range(1 << levels):
            if t in done:
                continue
            start = nodes
            for prefix, covers in blocks(t):
                left = None if max_nodes is None else max_nodes - nodes
                if (left is not None and left <= 0 or max_seconds is not None
                        and time.monotonic() - t_start > max_seconds):
                    stopped = True
                    break
                if left is not None and covers.bit_count() > left:
                    # keep the first positions the budget allows
                    covers, stopped = _lowest(covers, left), True
                nodes += covers.bit_count()
                if covers := orbits.leaders(prefix, covers):
                    leaves.block(prefix, covers, k)
                if stopped:
                    break
            if stopped:
                break
            done[t] = nodes - start
            if checkpoint and leaves.witness is not None:
                snapshot = dict(done), (leaves.mu, leaves.witness.facets)
                if time.monotonic() - written >= _CHECKPOINT_SECONDS:
                    _write_checkpoint(checkpoint, d, n, *snapshot)
                    snapshot, written = None, time.monotonic()
    finally:
        if snapshot is not None:
            _write_checkpoint(checkpoint, d, n, *snapshot)
    witness, mu = leaves.witness, leaves.mu
    if witness is not None:
        mu = diameter(build_dual_graph(witness))
        leaves.gate(witness, mu)
        # report the witness in its canonical labeling, where exact
        key = canonical_form(witness)
        if key.exact:
            witness = SimplicialComplex(n, key.facets)
    fault = None
    if not stopped and nodes != leaf_count(d, n):
        fault = "counted %d leaves, not %d" % (nodes, leaf_count(d, n))
    elif not stopped and mu != leaves.mu:
        fault = "found a witness of diameter %d, ecc0 %d" % (mu, leaves.mu)
    if fault and resumed:
        raise BadParams("checkpoint %s: the resumed mu(%d,%d) search %s"
                        % (checkpoint, d, n, fault))
    if fault:
        raise ContractViolation("exhaustive mu(%d,%d) search %s"
                                % (d, n, fault))
    return SearchResult(d=d, n=n, mu=mu, witness=witness,
                        exhaustive=not stopped, nodes_explored=nodes,
                        elapsed=time.monotonic() - t_start,
                        resumed_leaves=resumed_leaves)
