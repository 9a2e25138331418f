"""Seeded input generators for the benchmark.

Everything the program under test reads is written here: the Taint
property source, JSON-lines traces for the `taint-*` workloads and the
automaton corpus for `emptiness-d2`.  The same seed always gives the
same bytes.  Nothing here imports `topl`: the inputs are plain JSON in
the formats the README documents, so a change to the library cannot
shift them.
"""

from __future__ import annotations

import json
import random

TAINT_PROPERTY = """\
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

GET_PARAMETER = "javax.servlet.http.HttpServletRequest.getParameter"
CONCAT = "java.lang.String.concat"
EXECUTE_QUERY = "java.sql.Statement.executeQuery"
NOISE_METHODS = ("com.example.Cache.lookup", "com.example.Worker.run", "java.util.Map.get")

# Trace shapes.  `sources` getParameter returns and `chains` concats of
# an already tainted value make the tainted set; they all happen in the
# first `ramp` events, so the rest of the trace runs at the full count of
# live configurations (tainted values plus the always-live `start`).
# `violation` is the fraction of the trace after which the first
# executeQuery of a tainted value is placed.
TRACE_SHAPES = {
    "taint-few": dict(events=8000, sources=2, chains=1, ramp=200, violation=0.8),
    "taint-many": dict(events=900, sources=100, chains=200, ramp=600, violation=0.8),
    "taint-paths": dict(events=8000, sources=2, chains=1, ramp=200, violation=None),
}

# Steady-traffic mix, in event pairs (a call and its return): noise
# calls, untainted executeQuery calls and concats of untainted values.
MIX = (("noise", 6), ("query", 2), ("concat", 2))


def _call(method, *values):
    return {"kind": "call", "method": method, "values": list(values)}


def _ret(method, value):
    return {"kind": "ret", "method": method, "value": value}


def taint_trace(workload: str, seed: int) -> list:
    """Events (as JSON objects) of one `taint-*` trace.

    Events come in call/return pairs.  Untainted values are fresh atoms
    `u<i>`; tainted values are `t<i>`.  When `violation` is None the
    only violation is the last event, a bare executeQuery call.
    """
    shape = TRACE_SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    n_events = shape["events"]
    counter = [0]

    def fresh(prefix):
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    # Which ramp pairs create tainted values: the slots are drawn from
    # the seed; the order of sources and chains (spread evenly, a source
    # first) and the value each chain extends (the newest) are fixed,
    # because the cost of the ramp depends on them.
    ramp_pairs = shape["ramp"] // 2
    n_src, n_chain = shape["sources"], shape["chains"]
    if n_src + n_chain > ramp_pairs:
        raise ValueError(f"{workload}: ramp too short for {n_src + n_chain} tainted values")
    order = sorted([(i / n_src, 0, "source") for i in range(n_src)] +
                   [((j + 0.5) / n_chain, 1, "chain") for j in range(n_chain)])
    slots = sorted(rng.sample(range(ramp_pairs), n_src + n_chain))
    plan = {slot: kind for slot, (_, _, kind) in zip(slots, order)}

    tainted: list = []
    events: list = []
    kinds = [k for k, w in MIX for _ in range(w)]
    violation_pair = None
    if shape["violation"] is not None:
        violation_pair = int(n_events * shape["violation"]) // 2

    for pair in range(n_events // 2):
        kind = plan.get(pair)
        if kind == "source":
            v = fresh("t")
            events += [_call(GET_PARAMETER, "req", fresh("p")), _ret(GET_PARAMETER, v)]
            tainted.append(v)
        elif kind == "chain":
            base, other = tainted[-1], fresh("u")
            recv, arg = (base, other) if len(tainted) % 2 else (other, base)
            v = fresh("t")
            events += [_call(CONCAT, recv, arg), _ret(CONCAT, v)]
            tainted.append(v)
        elif pair == violation_pair:
            events += [_call(EXECUTE_QUERY, "stmt", rng.choice(tainted)), _ret(EXECUTE_QUERY, fresh("rs"))]
        else:
            what = rng.choice(kinds)
            if what == "noise":
                m = rng.choice(NOISE_METHODS)
                events += [_call(m, fresh("o"), fresh("u")), _ret(m, fresh("u"))]
            elif what == "query":
                events += [_call(EXECUTE_QUERY, "stmt", fresh("u")), _ret(EXECUTE_QUERY, fresh("rs"))]
            else:
                events += [_call(CONCAT, fresh("u"), fresh("u")), _ret(CONCAT, fresh("u"))]
    if shape["violation"] is None:
        events[-1] = _call(EXECUTE_QUERY, "stmt", rng.choice(tainted))
    if len(events) != n_events:
        raise AssertionError(f"{workload}: generated {len(events)} events, wanted {n_events}")
    return events


def trace_lines(events) -> str:
    return "".join(json.dumps(e, separators=(",", ":")) + "\n" for e in events)


# ---------------------------------------------------------------------------
# Emptiness corpus
# ---------------------------------------------------------------------------

CORPUS_SIZE = 2048
STORE_ATOMS = ("a", "b", "c")


def _guard(rng, m, n):
    atoms = []
    for _ in range(rng.randint(0, 2)):
        if m == 0:
            break
        atoms.append({"kind": rng.choice(("eq", "neq")), "reg": rng.randint(1, m), "pos": rng.randint(1, n)})
    if not atoms:
        return {"kind": "true"}
    g = atoms[0]
    for a in atoms[1:]:
        g = {"kind": "and", "left": g, "right": a}
    return g


def _action(rng, m, n):
    """Up to two assignments.  A register is written from at most one
    letter position: an action that writes one register from two
    positions crashes `hl_to_topl` (see FAULTY_AUTOMATA), and that
    fault must show up the same number of times on every seed."""
    if m == 0:
        return []
    out = []
    for _ in range(rng.randint(0, 2)):
        reg, pos = rng.randint(1, m), rng.randint(1, n)
        if any(a["reg"] == reg and a["pos"] != pos for a in out):
            pos = next(a["pos"] for a in out if a["reg"] == reg)
        out.append({"reg": reg, "pos": pos})
    return out


def random_automaton(rng: random.Random, n: int, m: int, n_trans: int, n_states: int) -> dict:
    """One high-level automaton of the given shape.  Arity 1 draws each
    label's length from 1..2, arity 2 uses length 1."""
    max_len = 2 if n == 1 else 1
    states = [f"s{i}" for i in range(n_states)]
    transitions = []
    for _ in range(n_trans):
        length = rng.randint(1, max_len)
        labels = [{"guard": _guard(rng, m, n), "action": _action(rng, m, n)} for _ in range(length)]
        transitions.append({"from": rng.choice(states), "labels": labels, "to": rng.choice(states)})
    # every transition has "labels", so the loader reads it as high-level
    return {
        "arity": n,
        "registers": m,
        "states": states,
        "initial": rng.choice(states),
        "store": [{"atom": rng.choice(STORE_ATOMS)} for _ in range(m)],
        "final": sorted(rng.sample(states, rng.randint(0, n_states))),
        "transitions": transitions,
    }


# Corpus strata: (arity, registers, transitions, states).  Every seed
# draws the same number of automata from each stratum, so the seed moves
# only what lies inside a shape.  Two registers are left out: at arity 1
# with d = 2 they give register automata of up to 14k states and several
# seconds each, about one per hundred draws, which made the corpus time
# swing fourfold between seeds.
STRATA = tuple((n, m, t, q) for n in (1, 2) for m in (0, 1) for t in range(1, 5) for q in range(1, 5))


def _self_loop(action, guard=None, registers=1):
    return {
        "arity": 2, "registers": registers, "states": ["s0"], "initial": "s0",
        "store": [{"atom": "a"}] * registers, "final": ["s0"],
        "transitions": [{"from": "s0", "labels": [{"guard": guard or {"kind": "true"}, "action": action}],
                         "to": "s0"}],
    }


# Seed-independent automata that hit `IndexError: pop from empty list`
# in `hl_to_topl` (`long_branches`): an arity-2 action writes one
# register from both letter positions, so it needs more fresh homes than
# the m + (d-1)n registers give.  The first is the smallest known case.
FAULTY_AUTOMATA = (
    _self_loop([{"reg": 1, "pos": 1}, {"reg": 1, "pos": 2}], {"kind": "eq", "reg": 1, "pos": 2}),
    _self_loop([{"reg": 1, "pos": 1}, {"reg": 1, "pos": 2}]),
    _self_loop([{"reg": 2, "pos": 2}, {"reg": 2, "pos": 1}], {"kind": "neq", "reg": 1, "pos": 1}, registers=2),
)


def emptiness_corpus(seed: int) -> list:
    """CORPUS_SIZE automata followed by FAULTY_AUTOMATA.

    The seed samples the corpus, stratum by stratum, from a population
    drawn once from a fixed seed and 5/4 of the corpus's size.  The cost
    of deciding a random automaton is heavy-tailed, so with independent
    draws the corpus's total register-automaton size (states plus
    transitions, which its decision time follows) spread by 0.107
    (quartile distance over median, seeds 1-10); sampling 4/5 of a fixed
    population keeps every seed's corpus different and spreads by 0.031.
    """
    per_stratum = CORPUS_SIZE // len(STRATA)
    pool = per_stratum * 5 // 4
    population_rng = random.Random("emptiness-d2:population")
    population = [random_automaton(population_rng, *STRATA[i % len(STRATA)]) for i in range(pool * len(STRATA))]
    rng = random.Random(f"emptiness-d2:{seed}")
    keep = sorted(k * len(STRATA) + s for s in range(len(STRATA)) for k in rng.sample(range(pool), per_stratum))
    return [population[i] for i in keep] + list(FAULTY_AUTOMATA)
