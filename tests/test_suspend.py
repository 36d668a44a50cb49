"""SuspendableRun: suspension of the recursive JSONSki pass.

A suspended run unwinds ``_Run``'s recursion into frames and rebuilds it
on the next step.  The contract under test: whatever the step budget,
scanner mode or serialization in between, the final offsets equal an
uninterrupted :meth:`JsonSki.run`; checkpoints captured by the earlier
explicit-stack interpreter still resume; and a state read back from
outside the program is validated before it is trusted.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro import JsonSki
from repro.bits.classify import CharClass
from repro.checkpoint import SuspendableRun
from repro.checkpoint.suspend import SUSPEND_CACHE_CHUNKS, SUSPEND_CHUNK_SIZE
from repro.data.datasets import DATASETS, large_record
from repro.errors import CheckpointError, DepthLimitError, RecordTooLargeError, ReproError
from repro.resilience.guards import Limits
from repro.stream.buffer import StreamBuffer

STATES_FIXTURE = Path(__file__).parent / "data" / "engine_states_v2.json"

#: Per dataset: a descendant query whose container matches hold a
#: reserved slot open across suspension points, and one over primitives.
DESCENDANT = {
    "TT": ("$..user", "$..id"),
    "BB": ("$..offers", "$..id"),
    "GMD": ("$..dt", "$..lat"),
    "NSPL": ("$..co", "$..nm"),
    "WM": ("$..bmrpr", "$..nm"),
    "WP": ("$..value", "$..datavalue"),
}

BUDGETS = (1, 7, 4096, None)

NESTED = (
    b'{"id": 1, "a": {"b": {"c": [1, {"b": [2, 3, {"d": 4}]}, 6], "s": "q"},'
    b' "e": [7, {"b": 8}]}, "b": {"z": true}}'
)


def _suspended_offsets(query, data, mode, budget, chunk_size=4096, limits=None):
    """Drive a suspendable run to the end, round-tripping the state
    through JSON after every step; also report whether any suspension
    point held a reserved slot open."""
    run = SuspendableRun.begin(query, data, mode=mode, chunk_size=chunk_size, limits=limits)
    held_open = False
    while not run.step(budget):
        state = json.loads(json.dumps(run.suspend().to_dict()))
        held_open = held_open or None in state["matches"]
        run = SuspendableRun.resume(data, state, limits=limits)
    return run.match_offsets(), held_open


# ---------------------------------------------------------------------------
# Differential: every budget, both modes, a JSON round trip per step.
# ---------------------------------------------------------------------------


@pytest.mark.fuzz_smoke
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_large_record_suspend_differential(name):
    data = large_record(name, 40_000, seed=3)
    container_query = DESCENDANT[name][0]
    queries = [spec.large for spec in DATASETS[name].queries] + list(DESCENDANT[name])
    for query in queries:
        for mode in ("vector", "word"):
            expected = JsonSki(query, mode=mode).run(data).spans()
            for budget in BUDGETS:
                got, held_open = _suspended_offsets(query, data, mode, budget)
                assert got == expected, (
                    f"suspended run diverged: dataset={name} query={query!r} "
                    f"mode={mode} budget={budget}"
                )
                if query == container_query and budget == 1:
                    assert held_open, f"{query!r} never suspended inside a container match"


#: Bytes the stray-byte differential inserts: each one shifts the string
#: parity, the escape state or the structural depth of everything after it.
STRAY_BYTES = b'"\\{]'


def _outcome(compute):
    """Offsets, or the class of the error the evaluation raised."""
    try:
        return compute()
    except ReproError as exc:
        return type(exc)


@pytest.mark.fuzz_smoke
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_stray_byte_suspend_differential(name):
    """One stray byte puts every later byte in a different string, escape
    or depth state; a run resumed from any suspension point after it must
    still end exactly like the uninterrupted run."""
    base = large_record(name, 16_000, seed=2)
    rng = random.Random(f"stray-{name}")
    queries = [spec.large for spec in DATASETS[name].queries] + ["$..id"]
    for _ in range(25):
        at = rng.randrange(len(base))
        data = base[:at] + bytes([rng.choice(STRAY_BYTES)]) + base[at:]
        for query in queries:
            for mode in ("vector", "word"):
                expected = _outcome(lambda: JsonSki(query, mode=mode).run(data).spans())
                got = _outcome(
                    lambda: _suspended_offsets(query, data, mode, 300, chunk_size=1024)[0]
                )
                assert got == expected, (
                    f"suspended run diverged: dataset={name} query={query!r} "
                    f"mode={mode} insert at {at}"
                )


def test_negative_depth_suspension_point_resumes_without_cursor():
    """A stray closer leaves the index depth negative at a suspension
    point; such a state holds no cursor (resume would reject it) and
    resumes from the chunk start."""
    data = b'{"a": [1}, {"b": "x]]}}"}, "q]}"}], "c": {"d": ["}]", 2]}}'
    expected = JsonSki("$..b").run(data).spans()
    run = SuspendableRun.begin("$..b", data, chunk_size=64)
    dropped = 0
    while not run.step(1):
        state = json.loads(json.dumps(run.suspend().to_dict()))
        dropped += state["cursor"] is None and run.buffer.index.carry_at(run.pos) is not None
        run = SuspendableRun.resume(data, state)
    assert dropped
    assert run.match_offsets() == expected


@pytest.mark.fuzz_smoke
@pytest.mark.parametrize("limits", [None, Limits.unlimited()], ids=["default", "unlimited"])
@pytest.mark.parametrize("budget", [1, None])
def test_suspended_nesting_bomb_raises_depth_limit(limits, budget):
    bomb = b"[" * 50_000 + b"]" * 50_000
    with pytest.raises(DepthLimitError):
        _suspended_offsets("$..a", bomb, "vector", budget, limits=limits)


# ---------------------------------------------------------------------------
# Checkpoints written by the explicit-stack interpreter still resume.
# ---------------------------------------------------------------------------


def _fixture_cases():
    fixture = json.loads(STATES_FIXTURE.read_text())
    data = fixture["record"].encode()
    return [
        pytest.param(data, case, id=f"{case['query']}-{case['mode']}")
        for case in fixture["cases"]
    ]


def test_fixture_covers_deep_frames_and_open_slots():
    fixture = json.loads(STATES_FIXTURE.read_text())
    for mode in ("vector", "word"):
        states = [s for case in fixture["cases"] if case["mode"] == mode for s in case["states"]]
        assert all(not state["done"] for state in states)
        assert any(len(state["frames"]) >= 3 for state in states)
        assert any(None in state["matches"] for state in states)


@pytest.mark.parametrize("data,case", _fixture_cases())
def test_explicit_stack_states_resume(data, case):
    expected = JsonSki(case["query"], mode=case["mode"]).run(data).spans()
    assert [tuple(pair) for pair in case["expected"]] == expected
    for state in case["states"]:
        run = SuspendableRun.resume(data, state)
        run.run_to_completion()
        assert run.match_offsets() == expected, f"state at pos {state['pos']} diverged"


# ---------------------------------------------------------------------------
# Resume validates what it reads back.
# ---------------------------------------------------------------------------


def _mid_state():
    """A mid-run ``$..b`` state holding both filled and reserved matches."""
    run = SuspendableRun.begin("$..b", NESTED)
    while not run.step(1):
        state = run.suspend().to_dict()
        if None in state["matches"] and any(state["matches"]) and len(state["frames"]) >= 3:
            return state
    raise AssertionError("no suitable suspension point")


def test_mid_state_resumes_unchanged():
    run = SuspendableRun.resume(NESTED, _mid_state())
    run.run_to_completion()
    assert run.match_offsets() == JsonSki("$..b").run(NESTED).spans()


def test_resume_enforces_record_size_limit():
    data = large_record("BB", 23_000, seed=7)
    run = SuspendableRun.begin("$.pd[*].cp[1:3].id", data)
    run.step(max_bytes=500)
    state = run.suspend()
    tight = Limits(max_record_bytes=100)
    with pytest.raises(RecordTooLargeError):
        SuspendableRun.begin("$.pd[*].cp[1:3].id", data, limits=tight)
    with pytest.raises(RecordTooLargeError):
        SuspendableRun.resume(data, state, limits=tight)


@pytest.mark.parametrize("pos", [-5, len(NESTED) + 1, "7"])
def test_resume_rejects_position_outside_input(pos):
    state = _mid_state()
    state["pos"] = pos
    with pytest.raises(CheckpointError, match="pos"):
        SuspendableRun.resume(NESTED, state)


def test_resume_rejects_unknown_frame_kind():
    state = _mid_state()
    state["frames"][-1]["kind"] = "zz"
    with pytest.raises(CheckpointError, match="kind"):
        SuspendableRun.resume(NESTED, state)


def test_resume_rejects_negative_index():
    state = _mid_state()
    state["frames"][-1]["idx"] = -1
    with pytest.raises(CheckpointError, match="index"):
        SuspendableRun.resume(NESTED, state)


def test_resume_rejects_slot_past_matches():
    state = _mid_state()
    framed = next(f for f in state["frames"] if f["slot"] is not None)
    framed["slot"] = len(state["matches"])
    with pytest.raises(CheckpointError, match="slot"):
        SuspendableRun.resume(NESTED, state)


def test_resume_rejects_slot_naming_a_filled_match():
    state = _mid_state()
    framed = next(f for f in state["frames"] if f["slot"] is not None)
    framed["slot"] = next(i for i, m in enumerate(state["matches"]) if m is not None)
    with pytest.raises(CheckpointError, match="slot"):
        SuspendableRun.resume(NESTED, state)


@pytest.mark.parametrize(
    "entry",
    [[3], [9, 4], [0, len(NESTED) + 1], [-1, 2], "0,1", [0.0, 1]],
    ids=["not-a-pair", "reversed", "past-end", "negative", "string", "float"],
)
def test_resume_rejects_malformed_match(entry):
    state = _mid_state()
    state["matches"][next(i for i, m in enumerate(state["matches"]) if m is not None)] = entry
    with pytest.raises(CheckpointError, match="match"):
        SuspendableRun.resume(NESTED, state)


def _word_mid_state():
    """A mid-run word-mode state of the typed query ``$.a.b.c[*]``."""
    run = SuspendableRun.begin("$.a.b.c[*]", NESTED, mode="word")
    assert not run.step(1)
    return run.suspend().to_dict()


@pytest.mark.parametrize(
    "mode,cursor",
    [
        ("vector", [0, 0]),
        ("vector", [0, 0, 1, 1, 0, 0]),
        ("word", [0, 0, 1, 1, 0]),
        ("vector", 3),
        ("vector", [0, 0, 1.0, 1, 0]),
        ("vector", [0, "0", 1, 1, 0]),
        ("vector", [True, 0, 1, 1, 0]),
        ("vector", [2, 0, 1, 1, 0]),
        ("vector", [0, -1, 1, 1, 0]),
        ("vector", [0, 0, -1, -1, 0]),
        ("vector", [0, 0, 3, 1, 1]),
    ],
    ids=[
        "arity-vector-pair", "arity-vector-six", "arity-word-five", "not-a-list",
        "float", "string", "bool", "escape-flag", "in-string-flag",
        "negative-depth", "depth-not-brace-plus-bracket",
    ],
)
def test_resume_rejects_malformed_cursor(mode, cursor):
    state = _mid_state() if mode == "vector" else _word_mid_state()
    state["cursor"] = cursor
    with pytest.raises(CheckpointError, match="cursor"):
        SuspendableRun.resume(NESTED, state)


def test_resume_rejects_cursor_on_done_state():
    run = SuspendableRun.begin("$..b", NESTED)
    run.run_to_completion()
    state = run.suspend().to_dict()
    assert state["done"] and state["cursor"] is None
    state["cursor"] = [0, 0, 0, 0, 0]
    with pytest.raises(CheckpointError, match="cursor"):
        SuspendableRun.resume(NESTED, state)


# ---------------------------------------------------------------------------
# A frame carries its container's closer once a fused lookup found it.
# ---------------------------------------------------------------------------

#: ``(query, record)``: a typed root and object (``$.a.c.d`` wants
#: object values) whose G1 lookups find each closer before the run
#: descends, and an array whose G5 skip finds its closer before element
#: 1 is descended into and the past-range G5 cuts to it.
CLOSER_CASES = [
    ("$.a.c.d", b'{"x": 1, "y": {"q": 2}, "a": {"z": 0, "c": {"d": 5}, "e": 1}, "w": {"c": 3}}'),
    ("$.l[1:2][0]", b'{"l": [[0], [1, 2], [3], [4]]}'),
]


def _budget_one_states(query, data):
    """Every state of a vector run stepped one byte at a time, each
    round-tripped through JSON and resumed."""
    run = SuspendableRun.begin(query, data)
    states = []
    while not run.step(1):
        states.append(json.loads(json.dumps(run.suspend().to_dict())))
        run = SuspendableRun.resume(data, states[-1])
    return states


@pytest.mark.parametrize("query, data", CLOSER_CASES, ids=["object", "array"])
def test_mid_container_state_carries_its_closer(query, data):
    expected = JsonSki(query).run(data)
    carried = [
        state for state in _budget_one_states(query, data)
        if len(state["frames"]) >= 2 and "end" in state["frames"][0]
    ]
    assert carried, "no suspension inside a child carried its parent's closer"
    for state in carried:
        for frame in state["frames"]:
            if "end" in frame:
                # The container's own closer: its bytes are the container.
                container = json.loads(data[frame["vstart"] : frame["end"] + 1])
                assert isinstance(container, dict if frame["kind"] == "obj" else list)
        run = SuspendableRun.resume(data, state)
        run.run_to_completion()
        assert run.match_offsets() == expected.spans()
        assert run.matches().to_jsonl() == expected.to_jsonl()


def _carried_state():
    query, data = CLOSER_CASES[0]
    state = next(s for s in _budget_one_states(query, data) if "end" in s["frames"][0])
    return data, state


@pytest.mark.parametrize("end", ["non-int", "at-vstart", "at-size"])
def test_resume_rejects_malformed_frame_end(end):
    data, state = _carried_state()
    frame = state["frames"][0]
    frame["end"] = {"non-int": str(frame["end"]), "at-vstart": frame["vstart"], "at-size": len(data)}[end]
    with pytest.raises(CheckpointError, match="end"):
        SuspendableRun.resume(data, state)


#: A stray ``{`` after ``"e"`` and a stray ``]`` after ``"g":``.  The
#: root's closer that the G1 lookup finds before ``a`` is the last byte;
#: paired again from ``a``'s end, the stray ``{`` swallows it and the
#: record ends unclosed.  A run resumed inside ``a.c`` takes the root's
#: G4 in the re-entry after its children close, so it ends like the
#: uninterrupted run only with the root's carried closer.
STRAY_REENTER = b'{"a": {"b": 1, "c": {"d": 2}}, "e"{: {"f": [1, 2]}, "g":] 3}'


def test_resumed_g4_takes_the_carried_closer():
    query = "$.a.c.d"
    expected = _outcome(lambda: JsonSki(query).run(STRAY_REENTER).spans())
    assert expected == [(26, 27)]
    deep = [s for s in _budget_one_states(query, STRAY_REENTER) if len(s["frames"]) >= 3]
    assert deep and all(s["frames"][0].get("end") == len(STRAY_REENTER) - 1 for s in deep)
    for state in deep:
        run = SuspendableRun.resume(STRAY_REENTER, state)
        assert _outcome(lambda: run.run_to_completion().spans()) == expected


# ---------------------------------------------------------------------------
# Stage 1 of a resumed run starts at the suspension point.
# ---------------------------------------------------------------------------

#: Words the resumed indexes below classify when each resumed run
#: starts stage 1 at its suspension point (same in both modes); a
#: rebuild from the chunk start classified 28,932.
WORDS_FROM_SUSPENSION_POINT = 18_338

STAGE1_CLASSES = [cls for cls in CharClass if cls is not CharClass.BACKSLASH]


@pytest.mark.parametrize("mode", ["vector", "word"])
def test_resume_classifies_from_the_suspension_point(mode):
    data = large_record("TT", 400_000, seed=1)
    query = DATASETS["TT"].queries[0].large
    whole = StreamBuffer(data, mode=mode, chunk_size=65536, cache_chunks=None).index
    run = SuspendableRun.begin(query, data, mode=mode, chunk_size=65536)
    words = resumes = 0
    done = run.step(16 * 1024)
    while not done:
        state = json.loads(json.dumps(run.suspend().to_dict()))
        pos = state["pos"]
        whole.get(whole.chunk_of(pos))
        assert state["cursor"] == list(whole.carry_at(pos))
        run = SuspendableRun.resume(data, state)
        index = run.buffer.index
        built = []
        build_chunk = index._build_chunk

        def spy(raw, start, entry, build_chunk=build_chunk, built=built):
            built.append(build_chunk(raw, start, entry))
            return built[-1]

        index._build_chunk = spy
        done = run.step(16 * 1024)
        first = built[0]
        assert first.start == pos
        reference = whole.get(whole.chunk_of(pos))
        for cls in STAGE1_CLASSES:
            expected = reference.positions(cls)
            assert list(first.positions(cls)) == list(expected[expected >= pos]), cls
        words += index.words_built
        resumes += 1
    assert resumes > 20
    assert words <= WORDS_FROM_SUSPENSION_POINT, words


#: Words every run of a 1 MB TT record classifies at the default
#: chunking, stepped at 256 KiB: 27,153.  At 1 MiB chunks, where each
#: resume classifies the rest of a 1 MiB chunk, it is 37,969.
WORDS_AT_DEFAULT_CHUNKING = 28_000


# BB's step 0 classifies the whole record (the root-level closer lookup
# spills to the document's end), so only its output is gated.
@pytest.mark.parametrize("name, max_words", [("TT", WORDS_AT_DEFAULT_CHUNKING), ("BB", None)])
def test_default_chunking_bounds_resume_work(name, max_words):
    """Step a 1 MB record at 256 KiB through default-chunked runs, with
    a JSON round trip per step, summing the words every run classifies."""
    data = large_record(name, 1_000_000, seed=1)
    query = DATASETS[name].queries[0].large
    run = SuspendableRun.begin(query, data)
    words = 0
    while True:
        done = run.step(256 * 1024)
        words += run.buffer.index.words_built
        if done:
            break
        run = SuspendableRun.resume(data, json.loads(json.dumps(run.suspend().to_dict())))
    assert run.match_offsets() == JsonSki(query).run(data).spans()
    if max_words is not None:
        assert words <= max_words, words


def test_begin_defaults_to_suspend_chunking():
    run = SuspendableRun.begin("$.a", b'{"a": 1}')
    assert run.buffer.index.chunk_size == SUSPEND_CHUNK_SIZE == 256 * 1024
    assert run.buffer.index.cache_chunks == SUSPEND_CACHE_CHUNKS == 16


def test_state_at_one_mib_chunking_resumes_with_it():
    data = large_record("TT", 1_200_000, seed=4)
    query = DATASETS["TT"].queries[0].large
    run = SuspendableRun.begin(query, data, chunk_size=1 << 20, cache_chunks=4)
    assert not run.step(300 * 1024)
    state = json.loads(json.dumps(run.suspend().to_dict()))
    assert (state["chunk_size"], state["cache_chunks"]) == (1 << 20, 4)
    resumed = SuspendableRun.resume(data, state)
    assert (resumed.buffer.index.chunk_size, resumed.buffer.index.cache_chunks) == (1 << 20, 4)
    assert not resumed.step(300 * 1024)
    assert resumed.suspend().chunk_size == 1 << 20
    resumed.run_to_completion()
    assert resumed.match_offsets() == JsonSki(query).run(data).spans()


def test_state_without_cursor_resumes_as_before():
    data = large_record("BB", 30_000, seed=5)
    query = DATASETS["BB"].queries[0].large
    expected = JsonSki(query).run(data).spans()
    run = SuspendableRun.begin(query, data, chunk_size=4096)
    cursors = 0
    while not run.step(700):
        state = run.suspend().to_dict()
        cursors += state.pop("cursor") is not None
        run = SuspendableRun.resume(data, state)
    assert cursors > 0
    assert run.match_offsets() == expected
