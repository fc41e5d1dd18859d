"""Max-min fair rate allocation: reference and grouped solvers.

The all-to-all MapReduce shuffle drives up to M x R concurrent flows
through the fabric, and the fabric re-solves the allocation on every
flow arrival and departure. Two solvers live here:

:func:`compute_max_min`
    The reference progressive-filling (water-filling) solver. O(links x
    memberships) per frozen-link iteration; kept as the specification
    the fast solver is tested against, and selectable on the fabric via
    ``solver="reference"``.

:func:`solve_max_min_grouped`
    The production solver. Flows that traverse the *same link tuple*
    (same source host, same destination host, same rack path) receive
    identical fair shares at every step of progressive filling, so they
    form an equivalence class that can be frozen atomically. The fabric
    names each class by a small-integer class id and each link by a
    link id, so the solver works on lists indexed by those ids rather
    than on dicts keyed by tuples (CPython re-hashes a tuple key on
    every lookup). It walks the flows once to count each class's
    members, then iterates over O(hosts^2) classes instead of O(M x R)
    flows, keeps a per-link active-flow *count* instead of rescanning
    membership lists, and returns one rate per class.

Bit-identical results
---------------------
The grouped solver reproduces the reference solver's floating-point
arithmetic exactly (property-tested in
``tests/net/test_solver_equivalence.py``), which is what makes swapping
it into the fabric safe for the paper's figures. Three properties make
this work:

1. **Link iteration order.** The reference scans candidate bottleneck
   links in first-touch order (the order links are first reached while
   walking the active-flow list). Ties in fair share are broken by that
   order via a strict ``<`` comparison. The grouped solver records the
   classes in the order the flow walk first touches them and reaches
   their links in that order, which is the identical link order — the
   numeric class and link ids play no part in it. A link leaves the
   scan once no unfrozen class crosses it, as the reference skips
   links with no active flow.
2. **Identical fair-share expression.** Both compute
   ``max(0, remaining) / active_count`` with the same operand values:
   counts are maintained exactly, and ``remaining`` evolves through the
   same sequence of subtractions (see 3).
3. **Per-flow subtraction.** When a bottleneck freezes k flows of a
   class, the reference subtracts the fair share from each traversed
   link k separate times. Repeated subtraction of the same value is
   order-insensitive but *not* equal to ``remaining - k * fair`` in
   floating point, so the grouped solver performs the same k
   subtractions.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Sequence, Tuple

__all__ = ["LinkClassTable", "compute_max_min", "solve_max_min_grouped"]


class LinkClassTable:
    """Interning table for flow link tuples (the fabric's class keys).

    A fabric maps each flow's traversed-link tuple to the integer class
    id :func:`solve_max_min_grouped` works on. Those tuples are
    structurally identical across every flow of one (src, dst) pair —
    and, in a batched campaign, across every fabric of one equivalence
    class — so interning them makes equal keys *pointer-equal*: the
    per-flow class-id lookup short-circuits on identity instead of
    comparing tuples element by element. This is purely an
    allocation/identity optimization; the tuples' values (and hence
    every solver result) are untouched.
    """

    __slots__ = ("_classes",)

    def __init__(self) -> None:
        """Start with no interned link tuples."""
        self._classes: Dict[Tuple[Hashable, ...], Tuple[Hashable, ...]] = {}

    def intern(self, links: Tuple[Hashable, ...]) -> Tuple[Hashable, ...]:
        """Return the canonical instance of ``links`` (first one wins)."""
        return self._classes.setdefault(links, links)

    def __len__(self) -> int:
        """Number of distinct link tuples interned so far."""
        return len(self._classes)


def compute_max_min(
    flows: Iterable["Flow"],  # noqa: F821 - duck-typed; needs only identity
    link_caps: Dict[Hashable, float],
    links_of: Callable[["Flow"], Tuple[Hashable, ...]],  # noqa: F821
) -> Dict["Flow", float]:  # noqa: F821
    """Water-filling max-min fair allocation (reference implementation).

    Every flow traverses the links ``links_of(flow)``; each link has
    capacity ``link_caps[link]``. Repeatedly: find the most-contended
    link (smallest remaining-capacity / active-flow-count), freeze all
    its active flows at that fair share, subtract, repeat.

    Returns a dict flow -> rate. The allocation is work-conserving and
    never exceeds any link capacity (asserted by property tests).
    """
    flows = list(flows)
    rates: Dict["Flow", float] = {}  # noqa: F821
    remaining = dict(link_caps)
    link_flows: Dict[Hashable, List["Flow"]] = {}  # noqa: F821
    for flow in flows:
        for link in links_of(flow):
            link_flows.setdefault(link, []).append(flow)
    active = set(flows)
    while active:
        bottleneck = None
        bottleneck_fair = None
        for link, members in link_flows.items():
            n = sum(1 for f in members if f in active)
            if n == 0:
                continue
            fair = max(0.0, remaining[link]) / n
            if bottleneck_fair is None or fair < bottleneck_fair:
                bottleneck_fair = fair
                bottleneck = link
        if bottleneck is None:  # pragma: no cover - active implies a link
            break
        for flow in link_flows[bottleneck]:
            if flow not in active:
                continue
            rates[flow] = bottleneck_fair
            active.remove(flow)
            for link in links_of(flow):
                remaining[link] -= bottleneck_fair
    return rates


def solve_max_min_grouped(
    flows: Iterable["Flow"],  # noqa: F821 - needs an int .class_id
    class_links: Sequence[Tuple[int, ...]],
    caps: Sequence[float],
) -> Dict[int, float]:
    """Grouped water-filling over integer link-tuple classes.

    Every flow carries a ``class_id``: a small integer naming its
    traversed-link tuple. ``class_links[class_id]`` is that tuple with
    each link replaced by a link id, and ``caps[link_id]`` is the
    link's capacity. Flows of one class are interchangeable under
    progressive filling — they see identical fair shares on every link
    and freeze together — so the solver manipulates one class per id.

    Returns ``{class_id: rate}`` for every class among ``flows``. With
    ``links_of`` mapping each flow to its link tuple and ``link_caps``
    holding the same capacities by link, every flow's rate is
    bit-identical to
    ``compute_max_min(flows, link_caps, links_of)[flow]``.
    """
    # One walk over the flows (in list order) counts the members of
    # each class and records the classes in first-touch order.
    sizes = [0] * len(class_links)
    present: List[int] = []
    for flow in flows:
        cid = flow.class_id
        k = sizes[cid]
        if k:
            sizes[cid] = k + 1
        else:
            sizes[cid] = 1
            present.append(cid)

    # Walking the classes in that order reaches the links in the
    # reference solver's first-touch order, which fixes the scan order.
    counts = [0] * len(caps)
    remaining = list(caps)
    scan: List[int] = []
    link_classes: Dict[int, List[int]] = {}
    for cid in present:
        k = sizes[cid]
        for link in class_links[cid]:
            n = counts[link]
            if n:
                counts[link] = n + k
                link_classes[link].append(cid)
            else:
                counts[link] = k
                scan.append(link)
                link_classes[link] = [cid]

    rates: Dict[int, float] = {}
    unfrozen = len(present)
    while unfrozen:
        # Every link left in the scan carries an unfrozen class; ties
        # go to the earliest-touched link (strict ``<``).
        bottleneck = scan[0]
        r = remaining[bottleneck]
        bottleneck_fair = (r if r > 0.0 else 0.0) / counts[bottleneck]
        for link in scan:
            r = remaining[link]
            fair = (r if r > 0.0 else 0.0) / counts[link]
            if fair < bottleneck_fair:
                bottleneck_fair = fair
                bottleneck = link
        for cid in link_classes[bottleneck]:
            k = sizes[cid]
            if not k:
                continue  # frozen at an earlier bottleneck
            sizes[cid] = 0
            rates[cid] = bottleneck_fair
            unfrozen -= 1
            for link in class_links[cid]:
                # k sequential subtractions, matching the reference's
                # per-flow updates exactly (see module docstring).
                r = remaining[link]
                if k == 1:
                    r -= bottleneck_fair
                else:
                    for _ in range(k):
                        r -= bottleneck_fair
                remaining[link] = r
                n = counts[link] - k
                counts[link] = n
                if not n:
                    # No unfrozen class crosses the link any more, so
                    # it can never bottleneck again.
                    scan.remove(link)
    return rates
