"""Shared fixtures for the test suite: the worked automata used across
modules, independent acceptance oracles, and seeded random generators.

The oracles deliberately avoid the library's search routines: word
acceptance is re-derived by enumerating transition paths, and high-level
acceptance by direct recursion over consume/skip choices, so they can
serve as ground truth for the breadth-first implementations.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import product

from hypothesis import strategies as st

from topl.core import (
    BOTTOM,
    StructureError,
    NOP,
    TRUE,
    And,
    Assign,
    Atom,
    Eq,
    MethodMatch,
    Neq,
    ToplAutomaton,
    Transition,
    apply_action,
    conjoin,
    conjuncts,
    eval_guard,
)
from topl.hl import HlAutomaton, HlTransition, match_prefix
from topl.monitor import Event, MonitorOptions, Verdict


def atoms(*names):
    return tuple(Atom(n) for n in names)


# ---------------------------------------------------------------------------
# Worked automata
# ---------------------------------------------------------------------------

def three_letter_automaton() -> ToplAutomaton:
    """Words abc (arity 1) with a != c and b != c; 2 registers."""
    return ToplAutomaton(
        arity=1,
        registers=2,
        states=frozenset({"1", "2", "3", "4"}),
        initial="1",
        store=(BOTTOM, BOTTOM),
        transitions=(
            Transition("1", TRUE, (Assign(1, 1),), "2"),
            Transition("2", TRUE, (Assign(2, 1),), "3"),
            Transition("3", And(Neq(1, 1), Neq(2, 1)), NOP, "4"),
        ),
        final=frozenset({"4"}),
    )


def list_cycle_automaton(head="v0") -> ToplAutomaton:
    """Letters (next, node, successor); accepts exactly the traversals of
    a linked list starting at `head` that close a cycle."""
    next_atom = Atom("next")
    v0 = Atom(head)
    g_step = And(Eq(1, 1), Eq(3, 2))
    return ToplAutomaton(
        arity=3,
        registers=3,
        states=frozenset({"q0", "q1", "q2"}),
        initial="q0",
        store=(next_atom, v0, v0),
        transitions=(
            Transition("q0", g_step, (Assign(3, 3),), "q0"),
            Transition("q0", g_step, (Assign(2, 2), Assign(3, 3)), "q1"),
            Transition("q0", And(g_step, Eq(3, 3)), NOP, "q2"),
            Transition("q1", g_step, (Assign(3, 3),), "q1"),
            Transition("q1", And(g_step, Eq(2, 3)), NOP, "q2"),
            Transition("q2", TRUE, NOP, "q2"),
        ),
        final=frozenset({"q2"}),
    )


def ab_example() -> HlAutomaton:
    """Words over {A, B} whose first A is not surrounded by two Bs."""
    return HlAutomaton(
        arity=1,
        registers=2,
        states=frozenset({"1", "2", "3"}),
        initial="1",
        store=(Atom("A"), Atom("B")),
        transitions=(
            HlTransition("1", ((Eq(2, 1), NOP), (Eq(1, 1), NOP), (Eq(2, 1), NOP)), "2"),
            HlTransition("1", ((Eq(1, 1), NOP),), "3"),
        ),
        final=frozenset({"3"}),
    )


def single_eq_automaton(value="v") -> ToplAutomaton:
    """One transition guarded by eq 1; as a low-level automaton it accepts
    only the one-letter word (value); with skip semantics it accepts every
    word containing it."""
    return ToplAutomaton(
        arity=1,
        registers=1,
        states=frozenset({"i", "f"}),
        initial="i",
        store=(Atom(value),),
        transitions=(Transition("i", Eq(1, 1), NOP, "f"),),
        final=frozenset({"f"}),
    )


def as_hl(a: ToplAutomaton) -> HlAutomaton:
    """Reinterpret a low-level automaton as high-level with singleton
    labels (changes the language: skips become possible)."""
    return HlAutomaton(
        arity=a.arity,
        registers=a.registers,
        states=a.states,
        initial=a.initial,
        store=a.store,
        transitions=tuple(HlTransition(t.source, ((t.guard, t.action),), t.target) for t in a.transitions),
        final=a.final,
    )


# ---------------------------------------------------------------------------
# Independent acceptance oracles
# ---------------------------------------------------------------------------

def build_seq_matcher(s, labels) -> ToplAutomaton:
    """Linear automaton accepting exactly the words matched by `labels`.

    States are "0".."d" with "0" initial and "d" final, initial store `s`,
    and one transition per label step.  The arity is the largest letter
    position the labels mention (at least 1).
    """
    labels = tuple(labels)
    if not labels:
        raise StructureError("label sequence must be non-empty")
    d = len(labels)
    arity = 1
    for g, act in labels:
        for atom in _iter_positions(g, act):
            arity = max(arity, atom)
    transitions = tuple(
        Transition(str(i - 1), g, act, str(i)) for i, (g, act) in enumerate(labels, start=1)
    )
    return ToplAutomaton(
        arity=arity,
        registers=len(s),
        states=frozenset(str(i) for i in range(d + 1)),
        initial="0",
        store=s,
        transitions=transitions,
        final=frozenset({str(d)}),
    )


def _iter_positions(g, act):
    for atom in conjuncts(g):
        if isinstance(atom, (Eq, Neq, MethodMatch)):
            yield atom.pos
    for asg in act:
        yield asg.pos


def brute_accepts(a: ToplAutomaton, word) -> bool:
    """Path enumeration of depth |word| from the initial configuration."""
    def walk(state, store, i):
        if i == len(word):
            return state in a.final
        letter = word[i]
        for t in a.transitions:
            if t.source == state and eval_guard(t.guard, store, letter):
                if walk(t.target, apply_action(t.action, letter, store), i + 1):
                    return True
        return False

    return walk(a.initial, a.store, 0)


def brute_hl_accepts(a: HlAutomaton, word) -> bool:
    """Direct recursion over consume/skip choices: a transition whose
    label sequence matches a prefix may fire; one letter is skipped iff
    none does."""
    def chain(store, labels, segment):
        for (g, act), letter in zip(labels, segment):
            if not eval_guard(g, store, letter):
                return None
            store = apply_action(act, letter, store)
        return store

    def walk(state, store, rest):
        if not rest and state in a.final:
            return True
        moved = False
        for t in a.transitions:
            if t.source != state or len(t.labels) > len(rest):
                continue
            store2 = chain(store, t.labels, rest[: len(t.labels)])
            if store2 is not None:
                moved = True
                if walk(t.target, store2, rest[len(t.labels):]):
                    return True
        if not moved and rest:
            return walk(state, store, rest[1:])
        return False

    return walk(a.initial, a.store, tuple(word))


def all_words(universe, arity, max_len):
    """Every word of length 0..max_len over universe^arity."""
    letters = [tuple(c) for c in product(universe, repeat=arity)]
    out = [()]
    for length in range(1, max_len + 1):
        out.extend(product(letters, repeat=length))
    return out


def language(a: ToplAutomaton, universe, max_len) -> frozenset:
    """Accepted words of length <= max_len over the universe, computed by
    sharing configuration sets along the word trie."""
    letters = [tuple(c) for c in product(universe, repeat=a.arity)]
    accepted = []

    def node_accepts(frontier):
        return any(q in a.final for q, _ in frontier)

    def explore(prefix, frontier):
        if node_accepts(frontier):
            accepted.append(prefix)
        if len(prefix) == max_len:
            return
        for letter in letters:
            nxt = set()
            for q, store in frontier:
                for t in a.outgoing(q):
                    if eval_guard(t.guard, store, letter):
                        nxt.add((t.target, apply_action(t.action, letter, store)))
            if nxt:
                explore(prefix + (letter,), frozenset(nxt))

    explore((), frozenset({(a.initial, a.store)}))
    return frozenset(accepted)


# ---------------------------------------------------------------------------
# The Taint property and seeded traces for it
# ---------------------------------------------------------------------------

TAINT = """\
property Taint
  prefix <javax.servlet.http.HttpServletRequest>
  prefix <java.lang.String>
  prefix <java.sql.Statement>
  start -> start:       *
  start -> tracking:    X := *.getParameter[*]
  tracking -> tracking: *
  tracking -> tracking: X := x.concat(*)
  tracking -> tracking: X := *.concat(x)
  tracking -> error:    *.executeQuery(x)
"""

_GET_PARAMETER = "javax.servlet.http.HttpServletRequest.getParameter"
_EXECUTE_QUERY = "java.sql.Statement.executeQuery"


def taint_events(seed: int, pairs: int, violation: bool = False) -> list:
    """`pairs` call/return pairs for `TAINT`: a getParameter that taints
    `t`, then seeded noise calls, concats and queries of untainted
    values.  With `violation`, a query of `t` is the last event."""
    rng = random.Random(seed)
    events = [Event("call", _GET_PARAMETER, (Atom("req"), Atom("p"))),
              Event("ret", _GET_PARAMETER, (Atom("t"),))]
    for i in range(1, pairs):
        method, receiver = rng.choice((("com.example.Worker.run", f"o{i}"),
                                       ("java.lang.String.concat", f"v{i}"),
                                       (_EXECUTE_QUERY, "stmt")))
        events += [Event("call", method, (Atom(receiver), Atom(f"u{i}"))),
                   Event("ret", method, (Atom(f"r{i}"),))]
    if violation:
        events.append(Event("call", _EXECUTE_QUERY, (Atom("stmt"), Atom("t"))))
    return events


# ---------------------------------------------------------------------------
# Random instance generators (plain seeded random; deterministic)
# ---------------------------------------------------------------------------

UNIVERSE = atoms("a", "b", "c")


def random_guard(rng: random.Random, m: int, n: int):
    k = rng.randint(0, 2)
    picks = []
    for _ in range(k):
        if m == 0:
            break
        cls = rng.choice((Eq, Neq))
        picks.append(cls(rng.randint(1, m), rng.randint(1, n)))
    return conjoin(picks)


def random_action(rng: random.Random, m: int, n: int):
    k = rng.randint(0, 2)
    if m == 0:
        return NOP
    return tuple(Assign(rng.randint(1, m), rng.randint(1, n)) for _ in range(k))


def random_topl(seed: int, max_states: int = 4, max_regs: int = 2, max_arity: int = 2) -> ToplAutomaton:
    rng = random.Random(seed)
    n_states = rng.randint(1, max_states)
    m = rng.randint(0, max_regs)
    n = rng.randint(1, max_arity)
    states = [f"s{i}" for i in range(n_states)]
    transitions = tuple(
        Transition(rng.choice(states), random_guard(rng, m, n), random_action(rng, m, n), rng.choice(states))
        for _ in range(rng.randint(1, 6))
    )
    n_final = rng.randint(0, n_states)
    return ToplAutomaton(
        arity=n,
        registers=m,
        states=frozenset(states),
        initial=rng.choice(states),
        store=tuple(rng.choice(UNIVERSE) for _ in range(m)),
        transitions=transitions,
        final=frozenset(rng.sample(states, n_final)),
    )


def random_hl(seed: int, max_states: int = 4, max_regs: int = 2, max_arity: int = 1,
              max_label_len: int = 3) -> HlAutomaton:
    rng = random.Random(seed)
    n_states = rng.randint(1, max_states)
    m = rng.randint(0, max_regs)
    n = rng.randint(1, max_arity)
    states = [f"s{i}" for i in range(n_states)]
    transitions = []
    for _ in range(rng.randint(1, 4)):
        length = rng.randint(1, max_label_len)
        labels = tuple((random_guard(rng, m, n), random_action(rng, m, n)) for _ in range(length))
        transitions.append(HlTransition(rng.choice(states), labels, rng.choice(states)))
    n_final = rng.randint(0, n_states)
    return HlAutomaton(
        arity=n,
        registers=m,
        states=frozenset(states),
        initial=rng.choice(states),
        store=tuple(rng.choice(UNIVERSE) for _ in range(m)),
        transitions=tuple(transitions),
        final=frozenset(rng.sample(states, n_final)),
    )


def random_ra(seed: int, max_states: int = 5, max_regs: int = 3):
    from topl.translate import RegisterAutomaton

    rng = random.Random(seed)
    n_states = rng.randint(1, max_states)
    m = rng.randint(1, max_regs)
    states = [f"s{i}" for i in range(n_states)]
    fresh = conjoin(Neq(i, 1) for i in range(1, m + 1))
    transitions = []
    for _ in range(rng.randint(1, 7)):
        if rng.random() < 0.5:
            label = (fresh, (Assign(rng.randint(1, m), 1),))
        else:
            label = (Eq(rng.randint(1, m), 1), NOP)
        transitions.append(Transition(rng.choice(states), label[0], label[1], rng.choice(states)))
    n_final = rng.randint(0, n_states)
    store_pool = atoms("a", "b", "c", "d", "e")
    return RegisterAutomaton(
        arity=1,
        registers=m,
        states=frozenset(states),
        initial=rng.choice(states),
        store=tuple(rng.choice(store_pool) for _ in range(m)),
        transitions=tuple(transitions),
        final=frozenset(rng.sample(states, n_final)),
    )


# ---------------------------------------------------------------------------
# Uncut emptiness oracle
# ---------------------------------------------------------------------------

def reference_emptiness(a):
    """Emptiness by the three uncut stages on `a` itself: no check of
    the initial state and no split of the labels.
    `topl.translate.emptiness` must give the same answer and, when the
    language is not empty, a witness of the same length; the witness
    itself may differ.  `topl_to_ra` itself translates only the
    co-reachable part of its input, which gives the same answers and
    witnesses as the whole input (`test_cut_and_uncut_inputs_agree`)."""
    from topl.translate import hl_to_topl, ra_emptiness, topl_to_ra, unflatten

    low = hl_to_topl(a) if isinstance(a, HlAutomaton) else a
    flat = ra_emptiness(topl_to_ra(low))
    return None if flat is None else unflatten(flat, low.arity)


# ---------------------------------------------------------------------------
# Monitor oracles: path replay and the frozen monitor
# ---------------------------------------------------------------------------

def replay_path(automaton: HlAutomaton, letters, path) -> bool:
    """Check that a reported path really drives the automaton from its
    initial configuration to a final state, consuming a prefix exactly."""
    state, store = automaton.initial, automaton.store
    pos = 0
    for step in path:
        if step[0] == "skip":
            if step[1] != pos:
                return False
            pos += 1
            continue
        _, idx, start, end = step
        if start != pos:
            return False
        t = automaton.transitions[idx]
        if t.source != state:
            return False
        store = match_prefix(store, t.labels, tuple(letters[start:end]))
        if store is None:
            return False
        state = t.target
        pos = end
    return state in automaton.final


class ReferenceMonitor:
    """The monitor as it was before configurations were indexed by state
    and register value: every live configuration is stepped on every
    event.  Kept as a differential oracle for `topl.monitor.Monitor`."""

    def __init__(self, automaton: HlAutomaton, options: MonitorOptions = MonitorOptions()):
        self.automaton = automaton
        self.options = options
        self.d = automaton.max_label_length
        # letters still needed for decisions: the stream from position
        # `_base` on; older letters are discarded as the front commits
        self._letters: list = []
        self._base = 0
        # position (letters consumed) -> ordered {(state, store): path or None}
        start_key = (automaton.initial, automaton.store)
        self._layers: dict = {0: {start_key: () if options.record_paths else None}}
        self.peak_active = 1
        self.dropped = 0
        self._reported: set = set()
        self._finished = False
        self._verdicts: list = []
        self._outgoing_cache: dict = {}
        # The empty prefix may already violate the property.
        self._initial_verdicts = self._emit(self._check_now())

    # -- internals ---------------------------------------------------------

    def _outgoing(self, state):
        cached = self._outgoing_cache.get(state)
        if cached is None:
            cached = tuple((t, len(t.labels), i) for i, t in enumerate(self.automaton.transitions)
                           if t.source == state)
            self._outgoing_cache[state] = cached
        return cached

    def _total_active(self) -> int:
        return sum(len(layer) for layer in self._layers.values())

    def _insert(self, pos: int, key, path) -> None:
        layer = self._layers.get(pos)
        if layer is None:
            layer = {}
            self._layers[pos] = layer
        if key in layer:
            return  # keep the first-discovered (shortest) path
        cap = self.options.max_configs
        if cap is not None and self._total_active() >= cap:
            self.dropped += 1
            return
        layer[key] = path
        total = self._total_active()
        if total > self.peak_active:
            self.peak_active = total

    def _successors(self, pos: int, key, path, horizon: int):
        """Standard successors of a configuration at `pos`, using letters
        up to `horizon`; the skip successor iff there are none."""
        state, store = key
        out = []
        for t, d_lbl, idx in self._outgoing(state):
            if pos + d_lbl > horizon:
                continue
            prefix = tuple(self._letters[pos - self._base:pos + d_lbl - self._base])
            store2 = match_prefix(store, t.labels, prefix)
            if store2 is not None:
                step = None
                if path is not None:
                    step = path + (("step", idx, pos, pos + d_lbl),)
                out.append((pos + d_lbl, (t.target, store2), step))
        if not out and pos < horizon:
            step = None if path is None else path + (("skip", pos),)
            out.append((pos + 1, key, step))
        return out

    def _expand_committed(self) -> None:
        """Expand every configuration whose full decision window (d
        letters of lookahead) is available."""
        k = self._base + len(self._letters)
        while self._layers:
            p = min(self._layers)
            if p > k - self.d:
                break
            layer = self._layers.pop(p)
            for key, path in layer.items():
                for pos2, key2, path2 in self._successors(p, key, path, k):
                    self._insert(pos2, key2, path2)

    def _check_now(self) -> list:
        """Acceptance of the prefix consumed so far, on a scratch copy:
        end-of-input semantics over the still-buffered letters."""
        k = self._base + len(self._letters)
        final = self.automaton.final
        found = []
        seen = set()
        work = deque()
        for pos in sorted(self._layers):
            for key, path in self._layers[pos].items():
                work.append((pos, key, path))
                seen.add((pos, key))
        while work:
            pos, key, path = work.popleft()
            if pos == k:
                if key[0] in final:
                    found.append((k, path))
                    if not self.options.record_paths:
                        break
                continue
            for pos2, key2, path2 in self._successors(pos, key, path, k):
                if (pos2, key2) not in seen:
                    seen.add((pos2, key2))
                    work.append((pos2, key2, path2))
        return found

    def _emit(self, found) -> list:
        new = []
        for k, path in found:
            if k in self._reported:
                continue
            self._reported.add(k)
            v = Verdict(k, path)
            self._verdicts.append(v)
            new.append(v)
            if self.options.stop_at_first:
                self._finished = True
                break
        return new

    # -- public API ----------------------------------------------------------

    def feed_letter(self, letter: Letter) -> list:
        if self._finished:
            return []
        if len(letter) != self.automaton.arity:
            raise StructureError(
                f"letter has arity {len(letter)}, automaton expects {self.automaton.arity}"
            )
        self._letters.append(letter)
        self._expand_committed()
        self._prune_letters()
        return self._emit(self._check_now())

    def finish(self) -> list:
        """End of trace: report anything not already reported eagerly."""
        if self._finished:
            return []
        self._finished = True
        return self._emit(self._check_now())

    @property
    def verdicts(self) -> tuple:
        return tuple(self._verdicts)

    @property
    def events_fed(self) -> int:
        return self._base + len(self._letters)

    def _prune_letters(self) -> None:
        front = min(self._layers) if self._layers else self._base + len(self._letters)
        if front > self._base:
            del self._letters[: front - self._base]
            self._base = front


# ---------------------------------------------------------------------------
# JSON inputs: the reference loader and mutated files
# ---------------------------------------------------------------------------

def _reference_guard(obj):
    kind = obj.get("kind") if isinstance(obj, dict) else None
    try:
        if kind == "true":
            return TRUE
        if kind == "eq":
            return Eq(obj["reg"], obj["pos"])
        if kind == "neq":
            return Neq(obj["reg"], obj["pos"])
        if kind == "and":
            return And(_reference_guard(obj["left"]), _reference_guard(obj["right"]))
        if kind == "method":
            return MethodMatch(obj["pos"], obj["event"], tuple(obj["patterns"]), obj.get("negated", False))
    except KeyError as exc:
        raise StructureError(f"bad guard {obj!r}: missing {exc}") from None
    raise StructureError(f"bad guard {obj!r}")


def _reference_action(obj):
    try:
        return tuple(Assign(item["reg"], item["pos"]) for item in obj)
    except (KeyError, TypeError) as exc:
        raise StructureError(f"bad action {obj!r}: {exc}") from None


def reference_automaton_from_json(obj):
    """The automaton loader as it was before it interned and checked in
    one walk: build every field, then `require_valid`.  Guards and
    actions are built field by field as the per-field loaders did before
    they interned.  `topl.serialize.automaton_from_json` must give an
    equal automaton, or raise the same error with the same text."""
    from topl.core import require_valid
    from topl.serialize import value_from_json

    try:
        raw_transitions = obj["transitions"]
        is_hl = any("labels" in t for t in raw_transitions)
        common = dict(
            arity=obj["arity"],
            registers=obj["registers"],
            states=frozenset(obj["states"]),
            initial=obj["initial"],
            store=tuple(value_from_json(v) for v in obj["store"]),
            final=frozenset(obj["final"]),
        )
        if is_hl:
            transitions = tuple(
                HlTransition(
                    t["from"],
                    tuple((_reference_guard(l["guard"]), _reference_action(l["action"])) for l in t["labels"]),
                    t["to"],
                )
                for t in raw_transitions
            )
            automaton = HlAutomaton(transitions=transitions, **common)
        else:
            transitions = tuple(
                Transition(t["from"], _reference_guard(t["guard"]), _reference_action(t["action"]), t["to"])
                for t in raw_transitions
            )
            automaton = ToplAutomaton(transitions=transitions, **common)
        require_valid(automaton)
    except (KeyError, TypeError) as exc:
        raise StructureError(f"bad automaton JSON: {exc}") from None
    return automaton


# Small replacement values: a large arity or register count is a valid,
# proportionally large input, not a malformed one.
SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 4) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=5,
)


def mutated_text(draw, obj) -> str:
    """The canonical text of `obj` after up to two mutations, a node
    replaced or a key dropped, and, one time in ten, cut short.  `obj`
    is changed in place."""
    from topl.serialize import dumps

    for _ in range(draw(st.integers(0, 2))):
        parent, key = None, None
        node = obj
        while isinstance(node, (dict, list)) and node and draw(st.integers(0, 2)):
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            parent, node = node, node[key]
        if parent is None:
            continue
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(SMALL_JSON)
    text = dumps(obj)
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


@st.composite
def automaton_text(draw):
    """A random automaton of either flavour in its JSON form, after
    `mutated_text`."""
    from topl.serialize import automaton_to_json

    seed = draw(st.integers(0, 10_000))
    if draw(st.booleans()):
        a = random_topl(seed)
    else:
        a = random_hl(seed, max_regs=1, max_label_len=2)
    return mutated_text(draw, automaton_to_json(a))
