"""Register automata and translations between the automaton flavours.

Provides, over the core/hl modules:

* the register-automaton restriction (arity 1, labels limited to
  ``(fresh, set i)`` and ``(eq i, nop)``) and its validator;
* ``topl_to_ra``: tuple letters unpacked to single values, registers
  doubled plus one, language preserved up to component flattening;
  only co-reachable states and live registers are simulated, and every
  output state can reach a final state unless the language is empty;
* ``topl_to_hl``: one extra sink state and parallel negated transitions
  so that skips can never fire;
* ``hl_to_topl``: queue simulation; letters are buffered in spare
  registers, transition label sequences are replayed statically over a
  repartition map recorded in the state;
* emptiness with verified witnesses: the empty word is answered before
  any translation, and a high-level automaton is decided on the
  automaton with one transition per label step (a shortest accepted
  word needs no skip), so `hl_to_topl` buffers no letter for it;
* union / intersection / concatenation over shared-arity automata.

All constructions are deterministic: identical inputs give identical
outputs, byte for byte after serialization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import islice, product as _cartesian, repeat

from .core import (
    BOTTOM,
    NOP,
    And,
    Assign,
    Atom,
    Eq,
    Guard,
    MethodMatch,
    Neq,
    StructureError,
    ToplAutomaton,
    Transition,
    Word,
    accepts,
    conjoin,
    conjuncts,
    coreachable,
    live_registers,
    require_valid,
)
from .hl import HlAutomaton, HlTransition, hl_accepts

__all__ = [
    "RegisterAutomaton",
    "register_automaton_diagnostics",
    "flatten",
    "unflatten",
    "topl_to_ra",
    "topl_to_hl",
    "hl_to_topl",
    "ra_emptiness",
    "emptiness",
    "union",
    "intersection",
    "concat",
]


# ---------------------------------------------------------------------------
# Register automata
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _ra_labels(big_m: int) -> tuple:
    """The label objects of a register automaton with `big_m` registers,
    built once per count: the fresh guard (neq 1 and ... and neq big_m:
    the letter differs from every register), its atoms, then the eq
    guard and the store action of each register, indexed by register
    (index 0 holds no guard and the no-op)."""
    fresh_atoms = [Neq(i, 1) for i in range(1, big_m + 1)]
    return (
        conjoin(fresh_atoms),
        frozenset(fresh_atoms),
        (None,) + tuple(Eq(i, 1) for i in range(1, big_m + 1)),
        (NOP,) + tuple((Assign(i, 1),) for i in range(1, big_m + 1)),
    )


def _label_shape(g: Guard, fresh_atoms: frozenset) -> str:
    """"fresh" or "eq" for the guard of a register-automaton label, else
    why no such label can carry `g`."""
    atoms = conjuncts(g)
    if any(isinstance(x, MethodMatch) for x in atoms):
        return "method-pattern guards are not allowed"
    if fresh_atoms and frozenset(atoms) == fresh_atoms:
        return "fresh"
    if len(atoms) == 1 and isinstance(atoms[0], Eq) and atoms[0].pos == 1:
        return "eq"
    return "label is neither (fresh, set i) nor (eq i, nop)"


def register_automaton_diagnostics(a: ToplAutomaton) -> list:
    """Why `a` is not a register automaton; empty list when it is one."""
    diags = []
    if a.arity != 1:
        diags.append(f"arity must be 1, got {a.arity}")
    fresh, fresh_atoms, _, _ = _ra_labels(a.registers)
    shapes = {id(fresh): "fresh"} if fresh_atoms else {}  # each distinct guard is classified once
    for idx, t in enumerate(a.transitions):
        problem = shapes.get(id(t.guard))
        if problem is None:
            problem = shapes[id(t.guard)] = _label_shape(t.guard, fresh_atoms)
        if problem == "fresh":
            if len(t.action) == 1 and t.action[0].pos == 1:
                continue
            problem = "fresh label must store the letter into one register"
        elif problem == "eq":
            if not t.action:
                continue
            problem = "eq label must not write any register"
        diags.append(f"transition {idx} ({t.source}->{t.target}): {problem}")
    return diags


@dataclass(frozen=True)
class RegisterAutomaton(ToplAutomaton):
    """A ToplAutomaton restricted to arity 1 and register-automaton labels."""

    def __post_init__(self) -> None:
        diags = register_automaton_diagnostics(self)
        if diags:
            raise StructureError("not a register automaton: " + "; ".join(diags))


# ---------------------------------------------------------------------------
# Word flattening
# ---------------------------------------------------------------------------

def flatten(w: Word) -> Word:
    """Concatenate tuple components: (a,b)(c,d) becomes a.b.c.d."""
    return tuple((v,) for letter in w for v in letter)


def unflatten(w: Word, arity: int) -> Word:
    """Inverse of `flatten` for words whose length is a multiple of arity."""
    values = [v for letter in w for v in letter]
    if len(values) % arity:
        raise StructureError(f"cannot regroup {len(values)} values into {arity}-tuples")
    return tuple(tuple(values[i:i + arity]) for i in range(0, len(values), arity))


# ---------------------------------------------------------------------------
# Guard helpers shared by the constructions
# ---------------------------------------------------------------------------

def _require_translatable(a) -> None:
    """Raise unless `a`, of either flavour, is well formed and every guard
    is a conjunction of eq/neq atoms, the only guards translations read.
    A success is recorded on the instance, as `require_valid` records its
    own; `serialize.automaton_from_json` records both as it loads."""
    if "_translatable" in a.__dict__:
        return
    require_valid(a)
    for t in a.transitions:
        for g, _ in t.labels:
            for atom in conjuncts(g):
                if not isinstance(atom, (Eq, Neq)):
                    raise StructureError(
                        f"transition {t.source}->{t.target}: "
                        f"only eq/neq/true conjunctions are translatable, got {atom!r}"
                    )
    a.__dict__["_translatable"] = True


def _negate_atom(atom):
    if isinstance(atom, Eq):
        return Neq(atom.reg, atom.pos)
    if isinstance(atom, Neq):
        return Eq(atom.reg, atom.pos)
    if isinstance(atom, MethodMatch):
        return MethodMatch(atom.pos, atom.kind, atom.patterns, not atom.negated)
    raise StructureError(f"cannot negate guard atom {atom!r}")


def _atom_key(atom):
    if isinstance(atom, Eq):
        return (0, atom.reg, atom.pos, "")
    if isinstance(atom, Neq):
        return (1, atom.reg, atom.pos, "")
    return (2, atom.pos, 0 if not atom.negated else 1, "|".join(atom.patterns) + atom.kind)


def _contradictory(atoms) -> bool:
    seen = set(atoms)
    for a in atoms:
        if seen & {_negate_atom(a)}:
            return True
    return False


def negation_dnf(guards) -> list:
    """Disjunctive normal form of NOT(g1) and ... and NOT(gd).

    Each disjunct is a tuple of atomic guards; the empty disjunct stands
    for `true`.  An always-true input guard makes the whole conjunction
    unsatisfiable, giving no disjuncts at all.
    """
    choices = []
    for g in guards:
        atoms = conjuncts(g)
        if not atoms:
            return []
        choices.append([_negate_atom(a) for a in atoms])
    disjuncts = []
    seen = set()
    for combo in _cartesian(*choices):
        atoms = tuple(sorted(set(combo), key=_atom_key))
        if _contradictory(atoms):
            continue
        if atoms in seen:
            continue
        seen.add(atoms)
        disjuncts.append(atoms)
    return disjuncts


# ---------------------------------------------------------------------------
# Low-level automaton -> register automaton
# ---------------------------------------------------------------------------

def _pad_atoms(taken: set):
    """Deterministic filler atoms distinct from each other and from `taken`."""
    i = 1
    while True:
        candidate = Atom(f"~pad{i}")
        i += 1
        if candidate not in taken:
            yield candidate


def _initial_repartition(store: tuple, size: int, fillers) -> tuple:
    """(home register of each cell of `store`, initial output store).

    Distinct values get homes 1, 2, ... in order of first occurrence and
    equal values share one; the output store of `size` cells holds each
    value at its home and takes its other cells from `fillers`.
    """
    value_home: dict = {}
    homes = tuple(value_home.setdefault(v, len(value_home) + 1) for v in store)
    return homes, tuple(value_home) + tuple(islice(fillers, size - len(value_home)))


def _rvec_id(rvec) -> str:
    return ".".join(map(str, rvec)) if rvec else "-"


def topl_to_ra(a: ToplAutomaton) -> RegisterAutomaton:
    """Register automaton accepting exactly the flattened language of `a`.

    Tuples are consumed one component per step; each source state is
    refined with a repartition vector telling which of the 2m+1 output
    registers currently simulates each source register.  Source registers
    holding equal values share a simulating register, so output stores
    stay injective and equality tests reduce to index comparisons.
    Locally fresh values that the source ignores are parked in a spare
    register (register automata must store what they cannot match).

    Only the co-reachable part of `a` is translated, and a register dead
    at a state (`core.live_registers`) is not simulated there: its entry
    is 0, so states that differ only in stale cells are one.  The
    language is unchanged, since neither a run leaving the co-reachable
    part nor a dead register's value can decide acceptance.  Output
    states from which guards leave no way to a final state are cut as
    well, so every state can reach a final state, except the lone
    initial state of an automaton whose language is empty.
    """
    _require_translatable(a)
    m, n = a.registers, a.arity
    big_m = 2 * m + 1
    every_reg = frozenset(range(1, big_m + 1))
    live = live_registers(a)  # keys: the co-reachable states
    fresh, _, eq_guard, store_into = _ra_labels(big_m)

    # Initial repartition: one output register per distinct initial value,
    # none for a register dead at the initial state.
    homes, init_store = _initial_repartition(a.store, big_m, _pad_atoms(set(a.store)))
    live0 = live.get(a.initial, ())
    r0 = tuple(c if i in live0 else 0 for i, c in enumerate(homes, 1))

    def main_id(q, rvec):
        return f"{q}|{_rvec_id(rvec)}"

    # Per transition into a co-reachable state: the registers its guard
    # compares with each component j; the registers component j rebinds
    # (their last assignment reads j) that are live at the target; and
    # the registers dead at the target, unsimulated from the start.
    leaving: dict = {}  # source state -> (index, target, eq sets, neq sets, rebinds, dead)
    for ti, t in enumerate(a.transitions):
        if t.target not in live:
            continue
        eq_sets = [set() for _ in range(n + 1)]
        neq_sets = [set() for _ in range(n + 1)]
        for atom in conjuncts(t.guard):
            (eq_sets if isinstance(atom, Eq) else neq_sets)[atom.pos].add(atom.reg)
        last = {asg.reg: asg.pos for asg in t.action}
        target_live = live[t.target]
        rebinds = [[] for _ in range(n + 1)]  # each in register order
        for i, j in sorted(last.items()):
            if i in target_live:
                rebinds[j].append(i)
        dead = [i for i in range(m) if i + 1 not in target_live]
        leaving.setdefault(t.source, []).append((ti, t.target, eq_sets, neq_sets, rebinds, dead))

    transitions = []
    contradicted = False  # some guard held of no letter under some repartition
    seen_edges = set()  # (source id, matched register or None, written register or 0, target id)
    states = set()
    final = set()
    start = main_id(a.initial, r0)
    main_ids = {(a.initial, r0): start}  # main state key -> its id
    queue = [(a.initial, r0)]  # grows while the loop walks it
    for q, rvec in queue:
        sid = main_ids[q, rvec]
        states.add(sid)
        if q in a.final:
            final.add(sid)
        r0_image = set(rvec)
        for ti, target, eq_sets, neq_sets, rebinds, dead in leaving.get(q, ()):
            rj = rvec
            if dead:
                rj = list(rvec)
                for i in dead:
                    rj[i] = 0
                rj = tuple(rj)
            # Per component: the registers it may equal, None for fresh.
            # A guard no letter satisfies under `rvec` adds nothing.
            choices = []
            for j in range(1, n + 1):
                c_eq = {rvec[i - 1] for i in eq_sets[j]}
                c_neq = {rvec[i - 1] for i in neq_sets[j]}
                if len(c_eq) >= 2 or (c_eq & c_neq):
                    choices = ()
                    contradicted = True
                    break
                choices.append(list(c_eq) if c_eq else [None] + sorted(every_reg - c_neq))
            # Walk component paths; each entry: (current state id, r_j vector).
            layer = [(sid, rj)]
            for j, hits in enumerate(choices, 1):
                rebind = rebinds[j]
                next_layer = {}
                for src_id, rj in layer:
                    for hit in hits:
                        written = 0
                        if rebind:
                            if hit is None:
                                keep = {rj[i - 1] for i in range(1, m + 1) if i not in rebind}
                                k = written = min(every_reg - r0_image - keep)
                            else:
                                k = hit
                            rj2 = list(rj)
                            for i in rebind:
                                rj2[i - 1] = k
                            rj2 = tuple(rj2)
                        else:
                            if hit is None:
                                written = min(every_reg - r0_image - set(rj))
                            rj2 = rj
                        if j == n:
                            tgt_key = (target, rj2)
                            tgt_id = main_ids.get(tgt_key)
                            if tgt_id is None:
                                tgt_id = main_ids[tgt_key] = main_id(*tgt_key)
                                queue.append(tgt_key)
                        else:
                            tgt_id = f"{sid}>{target}#{ti}@{j}|{_rvec_id(rj2)}"
                            next_layer.setdefault((tgt_id, rj2), None)
                            states.add(tgt_id)
                        edge = (src_id, hit, written, tgt_id)
                        if edge not in seen_edges:
                            seen_edges.add(edge)
                            guard = fresh if hit is None else eq_guard[hit]
                            transitions.append(Transition(src_id, guard, store_into[written], tgt_id))
                layer = list(next_layer)

    ra = RegisterAutomaton(
        arity=1,
        registers=big_m,
        states=frozenset(states),
        initial=start,
        store=init_store,
        transitions=tuple(transitions),
        final=frozenset(final),
    )
    # Every transition of `a` into a co-reachable state has a path here
    # from each state at its source, so every state follows a path of
    # `a` to a final state, unless a guard contradicted itself: then cut
    # the states with no path to a final state.
    if not contradicted:
        return ra
    co = coreachable(ra)
    if len(co) == len(ra.states):
        return ra
    return replace(ra, states=frozenset(co | {start}), transitions=tuple(t for t in transitions if t.target in co))


# ---------------------------------------------------------------------------
# Low-level automaton -> high-level automaton
# ---------------------------------------------------------------------------

def topl_to_hl(a: ToplAutomaton) -> HlAutomaton:
    """High-level automaton with the same language and |Q|+1 states.

    Every low-level transition becomes a singleton-label transition; a
    sink state absorbs exactly the letters no original transition can
    take, so no configuration is ever left without a standard move and
    skips never fire.
    """
    require_valid(a)
    stuck = "stuck"
    while stuck in a.states:
        stuck += "'"
    transitions = [HlTransition(t.source, ((t.guard, t.action),), t.target) for t in a.transitions]
    for q in sorted(a.states):
        guards = [t.guard for t in a.outgoing(q)]
        for disjunct in negation_dnf(guards):
            transitions.append(HlTransition(q, ((conjoin(disjunct), NOP),), stuck))
    return HlAutomaton(
        arity=a.arity,
        registers=a.registers,
        states=a.states | {stuck},
        initial=a.initial,
        store=a.store,
        transitions=tuple(transitions),
        final=a.final,
    )


# ---------------------------------------------------------------------------
# High-level automaton -> low-level automaton
# ---------------------------------------------------------------------------

# Simulation state of the queue construction, frozen for use as a key:
#   q        hl state
#   h        number of buffered letters (0..d-1)
#   k        queue rotation offset (0..d-1)
#   rmap     tuple of (slot, register): slot ('r', i) is hl register i,
#            slot ('q', rot, j) is component j of the buffered letter at
#            rotation position rot
#   unknown  tuple of (a, b) register pairs (a < b) whose value equality
#            has never been observed by a guard
_SimState = tuple


def _freeze_rmap(rmap: dict) -> tuple:
    return tuple(sorted(rmap.items()))


def _freeze_unknown(unknown, image) -> tuple:
    keep = [p for p in unknown if p[0] in image and p[1] in image]
    return tuple(sorted(keep))


def _pair(a: int, b: int) -> tuple:
    return (a, b) if a < b else (b, a)


class _UnionFind:
    """Classes of registers certified equal, each named by its smallest
    member; a register never merged is its own class."""

    def __init__(self):
        self.parent: dict = {}

    def find(self, x: int) -> int:
        parent = self.parent
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


class _QueueSim:
    """Shared machinery for hl_to_topl: static replay of labels over the
    repartition map, letter saving with exact match-set guards, and
    finality by statically draining the queue."""

    def __init__(self, a: HlAutomaton):
        _require_translatable(a)
        self.a = a
        self.n = a.arity
        self.m = a.registers
        self.d = a.max_label_length
        self.m_out = self.m + (self.d - 1) * self.n
        self._final_cache: dict = {}

        # Initial repartition: distinct initial values share nothing.
        homes, self.init_store = _initial_repartition(a.store, self.m_out, repeat(BOTTOM))
        rmap = {("r", i): home for i, home in enumerate(homes, start=1)}
        self.initial = (a.initial, 0, 0, _freeze_rmap(rmap), ())

    # -- state helpers ----------------------------------------------------

    def _slot_num(self, slot) -> int:
        if slot[0] == "r":
            return slot[1]
        return self.m + slot[1] * self.n + slot[2]

    def state_id(self, st: _SimState) -> str:
        q, h, k, rmap, unknown = st
        rpart = ",".join(f"{self._slot_num(s)}>{c}" for s, c in rmap)
        upart = ",".join(f"{a}-{b}" for a, b in unknown)
        return f"{q};h{h};k{k};r({rpart});u({upart})"

    # -- static replay of one transition over buffered letters -----------

    def static_run(self, st: _SimState, t: HlTransition):
        """Replay `t` over the queue; None when a guard statically fails.
        Only legal when len(t.labels) <= h."""
        q, h, k, rmap_t, unknown = st
        rmap = dict(rmap_t)
        uset = set(unknown)
        for step, (g, act) in enumerate(t.labels):
            rot = (k + step) % self.d
            for atom in conjuncts(g):
                reg_side = rmap[("r", atom.reg)]
                slot_side = rmap[("q", rot, atom.pos)]
                same = reg_side == slot_side
                if not same and _pair(reg_side, slot_side) in uset:
                    raise StructureError(
                        "internal: comparison of registers with unobserved equality"
                    )
                if isinstance(atom, Eq) and not same:
                    return None
                if isinstance(atom, Neq) and same:
                    return None
            for asg in act:
                rmap[("r", asg.reg)] = rmap[("q", rot, asg.pos)]
        d_lbl = len(t.labels)
        for step in range(d_lbl):
            rot = (k + step) % self.d
            for j in range(1, self.n + 1):
                rmap.pop(("q", rot, j), None)
        image = set(rmap.values())
        return (
            t.target,
            h - d_lbl,
            (k + d_lbl) % self.d,
            _freeze_rmap(rmap),
            _freeze_unknown(uset, image),
        )

    def skip_sim(self, st: _SimState) -> _SimState:
        q, h, k, rmap_t, unknown = st
        rmap = dict(rmap_t)
        for j in range(1, self.n + 1):
            rmap.pop(("q", k, j), None)
        image = set(rmap.values())
        return (q, h - 1, (k + 1) % self.d, _freeze_rmap(rmap), _freeze_unknown(unknown, image))

    def fireable(self, st: _SimState) -> list:
        out = []
        for t in self.a.outgoing(st[0]):
            if len(t.labels) <= st[1]:
                res = self.static_run(st, t)
                if res is not None:
                    out.append(res)
        return out

    def is_final(self, st: _SimState) -> bool:
        """Drain the queue with no further input; final iff some drain
        order reaches a final hl state with everything consumed."""
        cached = self._final_cache.get(st)
        if cached is not None:
            return cached
        q, h = st[0], st[1]
        if h == 0:
            result = q in self.a.final
        else:
            nexts = self.fireable(st)
            if not nexts:
                nexts = [self.skip_sim(st)]
            result = any(self.is_final(s) for s in nexts)
        self._final_cache[st] = result
        return result

    # -- saving the incoming letter ---------------------------------------

    def _cliques(self, image, uset):
        """All register sets that may simultaneously equal one value:
        the empty set, and every clique of the unobserved-equality graph."""
        verts = sorted(image)
        cliques = [()]
        def grow(base, candidates):
            for idx, v in enumerate(candidates):
                if all(_pair(v, b) in uset for b in base):
                    cur = base + (v,)
                    cliques.append(cur)
                    grow(cur, candidates[idx + 1:])
        grow((), verts)
        return cliques

    def save_branches(self, q, h, k, rmap_t, unknown):
        """All ways the incoming letter can relate to the referenced
        registers, as (guard atoms, action, successor state) triples.

        Exactly one branch fires for any store/letter: each component
        either matches a register set (a clique of the unobserved-
        equality graph) or none.  Inequalities that the certified
        distinctness of the store already implies are not re-tested.
        Fresh components go to spare registers, preferring the fixed
        bank of their queue slot so repartitions stay canonical;
        matched register sets are certified equal and merged.
        """
        rmap = dict(rmap_t)
        image = sorted(set(rmap.values()))
        uset = set(unknown)
        rot = (k + h) % self.d
        options = self._cliques(image, uset)
        out = []
        for combo in _cartesian(options, repeat=self.n):
            guard_atoms = []
            assigns = []
            classes = _UnionFind()
            fresh_targets = []
            taken = set(image)
            slot_home = {}
            ok = True
            for j, match in enumerate(combo, start=1):
                mset = set(match)
                if mset:
                    canon = min(mset)
                    for c in image:
                        if c in mset:
                            guard_atoms.append(Eq(c, j))
                        elif any(_pair(c, x) in uset for x in mset):
                            # only registers that might equal the matched
                            # value need an explicit inequality
                            guard_atoms.append(Neq(c, j))
                    for c in mset:
                        classes.union(canon, c)
                    slot_home[j] = canon
                else:
                    guard_atoms.extend(Neq(c, j) for c in image)
                    bank = self.m + (rot % max(1, self.d - 1)) * self.n + j
                    if bank in taken:
                        spare = [c for c in range(1, self.m_out + 1) if c not in taken]
                        if not spare:
                            ok = False
                            break
                        bank = spare[0]
                    taken.add(bank)
                    fresh_targets.append(bank)
                    assigns.append(Assign(bank, j))
                    slot_home[j] = bank
            if not ok:
                continue

            # Certified inequalities: a matched component separates its
            # match set from every other referenced register.
            uset2 = set(uset)
            for j, match in enumerate(combo, start=1):
                mset = set(match)
                if mset:
                    for x in mset:
                        for y in image:
                            if y not in mset:
                                uset2.discard(_pair(x, y))
            find = classes.find
            rmap2 = {slot: find(c) for slot, c in rmap.items()}
            for j in range(1, self.n + 1):
                rmap2[("q", rot, j)] = find(slot_home[j])
            uset3 = set()
            for x, y in uset2:
                fx, fy = find(x), find(y)
                if fx != fy:
                    uset3.add(_pair(fx, fy))
            # Components saved fresh together may or may not be equal.
            for i in range(len(fresh_targets)):
                for jdx in range(i + 1, len(fresh_targets)):
                    uset3.add(_pair(fresh_targets[i], fresh_targets[jdx]))
            image2 = set(rmap2.values())
            succ = (q, h + 1, k, _freeze_rmap(rmap2), _freeze_unknown(uset3, image2))
            out.append((tuple(guard_atoms), tuple(assigns), succ))
        return out

    # -- transitions of maximal length (last letter read dynamically) ----

    def long_branches(self, st: _SimState):
        """Transitions of length d: the first d-1 steps replay statically
        over the queue, the last guard/action read the incoming letter.
        Returns (concrete guard atoms, action, successor) triples plus the
        list of concrete final guards (for the skip complement)."""
        q, h, k, rmap_t, unknown = st
        branches = []
        final_guards = []
        for t in self.a.outgoing(q):
            if len(t.labels) != self.d:
                continue
            prefix = HlTransition(t.source, t.labels[:-1], t.target)
            if len(prefix.labels) != h:
                continue
            if prefix.labels:
                mid = self.static_run((q, h, k, rmap_t, unknown), prefix)
            else:
                mid = (t.target, 0, k, rmap_t, unknown)
            if mid is None:
                continue
            _, _, _, rmap_mid_t, unknown_mid = mid
            rmap_mid = dict(rmap_mid_t)
            uset = set(unknown_mid)
            g, act = t.labels[-1]
            # Every assignment reads the letter, not the store, so only
            # the last one to each register takes effect.
            act = tuple({asg.reg: asg for asg in act}.values())
            atoms = []
            eq_on = {}
            neq_on = {}
            failed = False
            for atom in conjuncts(g):
                c = rmap_mid[("r", atom.reg)]
                if isinstance(atom, Eq):
                    atoms.append(Eq(c, atom.pos))
                    eq_on.setdefault(atom.pos, set()).add(c)
                else:
                    atoms.append(Neq(c, atom.pos))
                    neq_on.setdefault(atom.pos, set()).add(c)
            for pos, regs in eq_on.items():
                for x in regs:
                    for y in neq_on.get(pos, ()):
                        if x == y:
                            failed = True
            if failed:
                continue
            atoms = tuple(sorted(set(atoms), key=_atom_key))
            final_guards.append(atoms)

            # The guard certifies equalities (all regs eq'd to one
            # component are equal) and inequalities; apply both.
            classes = _UnionFind()
            find = classes.find
            for pos, regs in eq_on.items():
                regs = sorted(regs)
                for other in regs[1:]:
                    classes.union(regs[0], other)
            for pos, regs in eq_on.items():
                for x in regs:
                    for y in neq_on.get(pos, ()):
                        uset.discard(_pair(x, y))

            image_mid = set(rmap_mid.values())
            # Homes that stay referenced after the action: every slot not
            # overwritten keeps its home, and eq-certified components
            # alias into existing homes.  Freed homes are reusable.
            overwritten = {("r", asg.reg) for asg in act}
            survivors = {c for slot, c in rmap_mid.items() if slot not in overwritten}
            for asg in act:
                hit = eq_on.get(asg.pos)
                if hit:
                    survivors.add(min(find(x) for x in hit))
            free = [c for c in range(1, self.m_out + 1) if c not in survivors]
            assigns = []
            comp_home = {}
            new_edges = []
            for asg in act:
                pos = asg.pos
                if pos not in comp_home:
                    hit = eq_on.get(pos)
                    if hit:
                        comp_home[pos] = min(find(x) for x in hit)
                    else:
                        target = free.pop(0)
                        comp_home[pos] = target
                        assigns.append(Assign(target, pos))
                        blocked = neq_on.get(pos, set())
                        for other in image_mid:
                            if other not in blocked and other != target:
                                new_edges.append(_pair(target, other))
                        for prev_pos, prev_home in comp_home.items():
                            if prev_pos != pos and prev_home not in image_mid and prev_home != target:
                                new_edges.append(_pair(target, prev_home))

            rmap_out = {slot: find(c) for slot, c in rmap_mid.items()}
            for asg in act:
                rmap_out[("r", asg.reg)] = comp_home[asg.pos]
            fresh_targets = {a.reg for a in assigns}
            uset2 = set()
            for x, y in uset:
                fx, fy = find(x), find(y)
                # Edges about a reused home's dead value do not apply to
                # the component just written there.
                if fx != fy and fx not in fresh_targets and fy not in fresh_targets:
                    uset2.add(_pair(fx, fy))
            uset2.update(new_edges)
            # All letters consumed: only hl registers stay referenced.
            rmap_final = {s: c for s, c in rmap_out.items() if s[0] == "r"}
            image2 = set(rmap_final.values())
            succ = (t.target, 0, 0, _freeze_rmap(rmap_final), _freeze_unknown(uset2, image2))
            branches.append((atoms, tuple(assigns), succ))
        return branches, final_guards


def hl_to_topl(a: HlAutomaton) -> ToplAutomaton:
    """Low-level automaton with the same language as the high-level `a`.

    Uses m + (d-1)*n registers: the original m plus buffer space for
    d-1 letters.  States record (hl state, buffered count, rotation,
    repartition); decisions between a standard transition and a skip are
    delayed until a full window of d letters is visible, which is exactly
    when they are determined.
    """
    sim = _QueueSim(a)
    d, n = sim.d, sim.n

    transitions = []
    seen_edges = set()
    states = {}
    final = set()

    pending: list = []  # every interned state once; grows while the loop walks it

    def intern(st) -> str:
        sid = states.get(st)
        if sid is None:
            sid = sim.state_id(st)
            states[st] = sid
            pending.append(st)
            if sim.is_final(st):
                final.add(sid)
        return sid

    start = intern(sim.initial)

    def add_edge(src_id, guard_atoms, action, succ):
        tgt_id = intern(succ)
        edge = (src_id, conjoin(guard_atoms), tuple(action), tgt_id)
        if edge not in seen_edges:
            seen_edges.add(edge)
            transitions.append(Transition(*edge))

    for st in pending:
        sid = states[st]
        q, h, k, rmap_t, unknown = st
        if h < d - 1:
            for guard_atoms, action, succ in sim.save_branches(q, h, k, rmap_t, unknown):
                add_edge(sid, guard_atoms, action, succ)
            continue
        # Full window: h == d-1 buffered letters plus the incoming one.
        shorts = sim.fireable(st)
        for res in shorts:
            rq, rh, rk, rrmap, runknown = res
            for guard_atoms, action, succ in sim.save_branches(rq, rh, rk, rrmap, runknown):
                add_edge(sid, guard_atoms, action, succ)
        longs, final_guards = sim.long_branches(st)
        for guard_atoms, action, succ in longs:
            add_edge(sid, guard_atoms, action, succ)
        if not shorts:
            complement = negation_dnf([conjoin(g) for g in final_guards])
            if d == 1:
                for disjunct in complement:
                    add_edge(sid, disjunct, NOP, st)
            else:
                base = sim.skip_sim(st)
                bq, bh, bk, brmap, bunknown = base
                for guard_atoms, action, succ in sim.save_branches(bq, bh, bk, brmap, bunknown):
                    for disjunct in complement:
                        add_edge(sid, tuple(guard_atoms) + disjunct, action, succ)

    return ToplAutomaton(
        arity=n,
        registers=sim.m_out,
        states=frozenset(states.values()),
        initial=start,
        store=sim.init_store,
        transitions=tuple(transitions),
        final=frozenset(final),
    )


# ---------------------------------------------------------------------------
# Emptiness
# ---------------------------------------------------------------------------

def ra_emptiness(a: ToplAutomaton):
    """None when the language is empty, else a witness word that replays.

    Every register-automaton label is satisfiable over the infinite value
    set (pick the register's value for eq, an unused value for fresh), so
    emptiness is plain state reachability; witnesses are built along a
    shortest path and verified by replay before being returned.  A
    `RegisterAutomaton` was checked when it was built; any other
    automaton is checked here.
    """
    if not isinstance(a, RegisterAutomaton):
        diags = register_automaton_diagnostics(a)
        if diags:
            raise StructureError(
                "not a register automaton (translate with topl_to_ra first): " + "; ".join(diags)
            )
    parent: dict = {a.initial: None}
    order = [a.initial]
    goal = None
    if a.initial in a.final:
        goal = a.initial
    idx = 0
    while idx < len(order) and goal is None:
        q = order[idx]
        idx += 1
        for t in a.outgoing(q):
            if t.target not in parent:
                parent[t.target] = (q, t)
                order.append(t.target)
                if t.target in a.final:
                    goal = t.target
                    break
    if goal is None:
        return None
    path = []
    cur = goal
    while parent[cur] is not None:
        prev, t = parent[cur]
        path.append(t)
        cur = prev
    path.reverse()

    store = list(a.store)
    used = set(store)
    witness = []
    counter = 1
    for t in path:
        atoms = conjuncts(t.guard)
        if len(atoms) == 1 and isinstance(atoms[0], Eq):
            v = store[atoms[0].reg - 1]
        else:
            while True:
                v = Atom(f"~w{counter}")
                counter += 1
                if v not in used:
                    break
        used.add(v)
        letter = (v,)
        witness.append(letter)
        for asg in t.action:
            store[asg.reg - 1] = v
    witness = tuple(witness)
    if not accepts(a, witness):
        raise StructureError("internal: constructed witness does not replay")
    return witness


def _split(a: HlAutomaton) -> HlAutomaton:
    """`a` with each label step on a transition of its own: a transition
    with a d-step label becomes a chain through d-1 fresh, non-final
    intermediate states.  `a` itself when every label has one step.

    Without skips, the two have the same runs from the initial state to
    a final state, since an intermediate state is neither final nor
    left but along its chain.  Deleting the skipped letters of an
    accepting run leaves an accepting run, so a shortest accepted word
    of either has a run without skips: the two have the same shortest
    accepted words, though their languages differ.  Every step, index
    and state of `a` is copied, so the split inherits `a`'s recorded
    structural checks.
    """
    if a.max_label_length == 1:
        return a
    tag = "~"  # no state of `a` starts with it, so no generated name clashes
    while any(q.startswith(tag) for q in a.states):
        tag += "~"
    states = set(a.states)
    transitions = []
    for ti, t in enumerate(a.transitions):
        source = t.source
        for j, step in enumerate(t.labels[:-1], 1):
            mid = f"{tag}{ti}.{j}"
            states.add(mid)
            transitions.append(HlTransition(source, (step,), mid))
            source = mid
        transitions.append(HlTransition(source, t.labels[-1:], t.target))
    b = replace(a, states=frozenset(states), transitions=tuple(transitions))
    for checked in ("_valid", "_translatable"):
        if checked in a.__dict__:
            b.__dict__[checked] = True
    return b


def emptiness(a):
    """Emptiness for either automaton flavour; the witness (if any) is
    un-flattened back to the source arity and verified by replay.

    Every structural check runs first.  Then an automaton whose initial
    state is final is answered with the empty word, which both flavours
    accept by definition, so it is not replayed; and a high-level
    automaton whose initial state cannot reach a final state in the
    transition graph is answered "empty" (a skip keeps the state, so no
    run can accept), both before any translation.  Otherwise the answer
    is `ra_emptiness(topl_to_ra(low))`, where `low` is `a` itself or
    `hl_to_topl(_split(a))` for a high-level `a`.  `topl_to_ra` cuts
    only what lies on no path to a final state, and the split keeps the
    shortest accepted words, so the answers and witness lengths are
    those of the whole automaton; a witness may differ from the uncut
    stages' on `a`, and is replayed on `a` all the same.
    """
    if isinstance(a, HlAutomaton):
        replays = hl_accepts
    elif isinstance(a, ToplAutomaton):
        replays = accepts
    else:
        raise StructureError(f"unsupported automaton type {type(a).__name__}")
    _require_translatable(a)
    if a.initial in a.final:
        return ()
    if isinstance(a, HlAutomaton) and a.initial not in coreachable(a):
        return None
    low = hl_to_topl(_split(a)) if isinstance(a, HlAutomaton) else a
    flat = ra_emptiness(topl_to_ra(low))
    if flat is None:
        return None
    word = unflatten(flat, a.arity)
    if not replays(a, word):
        raise StructureError("internal: witness does not replay on the source automaton")
    return word


# ---------------------------------------------------------------------------
# Closure constructions
# ---------------------------------------------------------------------------

def _shift_guard(g: Guard, dm: int) -> Guard:
    if isinstance(g, Eq):
        return Eq(g.reg + dm, g.pos)
    if isinstance(g, Neq):
        return Neq(g.reg + dm, g.pos)
    if isinstance(g, And):
        return And(_shift_guard(g.left, dm), _shift_guard(g.right, dm))
    return g


def _shift_action(act: tuple, dm: int) -> tuple:
    return tuple(Assign(asg.reg + dm, asg.pos) for asg in act)


def _check_same_arity(a: ToplAutomaton, b: ToplAutomaton) -> None:
    if a.arity != b.arity:
        raise StructureError(f"arity mismatch: {a.arity} vs {b.arity}")


def _moved(t: Transition, side: str, dm: int, source: str = None) -> Transition:
    """`t` with its states prefixed by `side` and its registers shifted by
    `dm`; it leaves `source` instead when one is given."""
    return Transition(
        side + t.source if source is None else source,
        _shift_guard(t.guard, dm),
        _shift_action(t.action, dm),
        side + t.target,
    )


def _side_by_side(a: ToplAutomaton, b: ToplAutomaton, initial, transitions, final) -> ToplAutomaton:
    """An automaton over `a`'s and `b`'s register banks side by side,
    `a`'s first: `a`'s states and transitions copied under "a:", `b`'s
    under "b:", then `initial` and `transitions`."""
    _check_same_arity(a, b)
    dm = a.registers
    copies = [_moved(t, "a:", 0) for t in a.transitions] + [_moved(t, "b:", dm) for t in b.transitions]
    return ToplAutomaton(
        arity=a.arity,
        registers=a.registers + b.registers,
        states=frozenset({f"a:{q}" for q in a.states} | {f"b:{q}" for q in b.states} | {initial}),
        initial=initial,
        store=a.store + b.store,
        transitions=tuple(copies + transitions),
        final=frozenset(final),
    )


def union(a: ToplAutomaton, b: ToplAutomaton) -> ToplAutomaton:
    """Accepts a word iff `a` or `b` does.

    Register banks sit side by side; a fresh initial state carries copies
    of both originals' initial transitions and is final iff either
    original accepts the empty word.
    """
    entries = [_moved(t, "a:", 0, "u") for t in a.outgoing(a.initial)]
    entries += [_moved(t, "b:", a.registers, "u") for t in b.outgoing(b.initial)]
    final = {f"a:{q}" for q in a.final} | {f"b:{q}" for q in b.final}
    if a.initial in a.final or b.initial in b.final:
        final.add("u")
    return _side_by_side(a, b, "u", entries, final)


def intersection(a: ToplAutomaton, b: ToplAutomaton) -> ToplAutomaton:
    """Accepts a word iff both `a` and `b` do (product construction)."""
    _check_same_arity(a, b)
    dm = a.registers
    states = {f"({qa}|{qb})" for qa in a.states for qb in b.states}
    transitions = []
    for ta in a.transitions:
        for tb in b.transitions:
            guard = conjoin(conjuncts(ta.guard) + conjuncts(_shift_guard(tb.guard, dm)))
            action = ta.action + _shift_action(tb.action, dm)
            transitions.append(
                Transition(f"({ta.source}|{tb.source})", guard, action, f"({ta.target}|{tb.target})")
            )
    return ToplAutomaton(
        arity=a.arity,
        registers=a.registers + b.registers,
        states=frozenset(states),
        initial=f"({a.initial}|{b.initial})",
        store=a.store + b.store,
        transitions=tuple(transitions),
        final=frozenset(f"({qa}|{qb})" for qa in a.final for qb in b.final),
    )


def concat(a: ToplAutomaton, b: ToplAutomaton) -> ToplAutomaton:
    """Accepts w iff w = uv with u accepted by `a` and v by `b`.

    Every final state of `a` additionally carries copies of the
    transitions leaving `b`'s initial state; `b`'s register bank is
    untouched while `a` runs, so the second phase starts pristine.
    """
    handovers = [
        _moved(t, "b:", a.registers, f"a:{qf}") for qf in sorted(a.final) for t in b.outgoing(b.initial)
    ]
    final = {f"b:{q}" for q in b.final}
    if b.initial in b.final:
        final |= {f"a:{q}" for q in a.final}
    return _side_by_side(a, b, f"a:{a.initial}", handovers, final)
