"""Hostile frames on the wire (ISSUE 21).

Whatever bytes a client sends as one line, an in-process ``serve()`` owes
it exactly one reply line of *strict* JSON — ``ok`` or a typed error code
— and the connection must go on answering.  A table of frames that used
to kill the connection (or come back as non-JSON) pins the known cases; a
hypothesis strategy over arbitrary JSON values in every request field
looks for the unknown ones.
"""

import asyncio
import json
import logging

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.datasets import generate_beijing
from repro.index import TrajTree
from repro.service import QueryService, serve
from repro.service.server import MAX_REQUEST_BYTES

POINTS = [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 1.0, 2.0]]
ERROR_CODES = {"service_error", "invalid_request", "timeout", "overloaded",
               "unavailable", "closed"}


@pytest.fixture(scope="module")
def tree():
    return TrajTree(generate_beijing(24, seed=5), normalized=True,
                    num_vps=4, seed=5, backend="numpy")


def frame(**fields) -> bytes:
    """A request line; ``NaN`` / ``Infinity`` go out as JSON extensions."""
    return json.dumps(fields).encode() + b"\n"


def strict_loads(line: bytes):
    def reject(name):
        raise ValueError(f"reply carries the non-JSON constant {name}")

    return json.loads(line, parse_constant=reject)


async def _exchange(tree, frames):
    """Send every frame, each followed by a ping, over one connection.

    Returns ``(replies, pongs, service)``: the raw reply line per frame,
    the reply line per ping, and the (closed) service for its counters.
    """
    service = QueryService(tree)
    server = await serve(service, port=0)
    port = server.sockets[0].getsockname()[1]
    # a generous client-side limit: the stats reply is one long line
    reader, writer = await asyncio.open_connection("127.0.0.1", port,
                                                   limit=1 << 24)
    replies, pongs = [], []
    try:
        for data in frames:
            writer.write(data)
            writer.write(b'{"op": "ping"}\n')
            await writer.drain()
            replies.append(await asyncio.wait_for(reader.readline(), 30))
            pongs.append(await asyncio.wait_for(reader.readline(), 30))
    finally:
        writer.close()
        server.close()
        await server.wait_closed()
        await service.aclose()
    return replies, pongs, service


def check_exchange(tree, frames, caplog):
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        replies, pongs, service = asyncio.run(_exchange(tree, frames))
    assert "Unhandled exception" not in caplog.text
    parsed = []
    for data, reply, pong in zip(frames, replies, pongs):
        shown = data[:120]
        assert reply.endswith(b"\n"), (shown, reply)
        obj = strict_loads(reply)
        if obj["ok"]:
            assert "result" in obj, shown
        else:
            assert obj["error"]["code"] in ERROR_CODES, (shown, obj)
        assert strict_loads(pong) == {"ok": True, "result": "pong"}, shown
        parsed.append(obj)
    # a reject is counted, and says nothing about the backend's health
    rejects = sum(not obj["ok"] and obj["error"]["code"] == "invalid_request"
                  for obj in parsed)
    assert service.stats.errors.get("invalid_request", 0) == rejects
    if rejects == sum(not obj["ok"] for obj in parsed):
        assert service.breaker.state == "closed"
    return parsed


#: name -> one request line.  The first seven are the frames of the
#: issue: at the parent they closed the connection with no reply, came
#: back as non-JSON, or were accepted as a deadline.
HOSTILE_FRAMES = {
    "k_overflows_float": b'{"op": "knn", "points": [[0,0,0],[1,1,1]], '
                         b'"k": 1e400}\n',
    "k_nan": frame(op="knn", points=POINTS, k=float("nan")),
    "timeout_word": frame(op="knn", points=POINTS, k=2, timeout="soon"),
    "radius_nan": frame(op="range", points=POINTS, radius=float("nan")),
    "timeout_nan": frame(op="knn", points=POINTS, k=2,
                         timeout=float("nan")),
    "timeout_negative": frame(op="knn", points=POINTS, k=2, timeout=-1),
    "oversized_line": frame(
        op="knn", k=2,
        points=[[float(i), 1.0, float(i)]
                for i in range(MAX_REQUEST_BYTES // 16)]),
    "k_huge_int": b'{"op": "knn", "points": [[0,0,0],[1,1,1]], "k": 1'
                  + b"0" * 400 + b"}\n",
    "k_fraction": frame(op="knn", points=POINTS, k=2.5),
    "k_zero": frame(op="knn", points=POINTS, k=0),
    "k_list": frame(op="knn", points=POINTS, k=[3]),
    "k_missing": frame(op="subtrajectory_knn", points=POINTS),
    "radius_infinite": frame(op="range", points=POINTS,
                             radius=float("inf")),
    "radius_negative": frame(op="range", points=POINTS, radius=-0.5),
    "timeout_zero": frame(op="knn", points=POINTS, k=2, timeout=0),
    "timeout_infinite": frame(op="knn", points=POINTS, k=2,
                              timeout=float("inf")),
    "not_json": b"knn please\n",
    "not_utf8": b'{"op": "knn\xff\xfe"}\n',
    "not_an_object": b"[1, 2, 3]\n",
    "no_op": frame(points=POINTS, k=2),
    "op_unknown": frame(op="drop_table", points=POINTS, k=2),
    "op_unhashable": frame(op=["knn"], points=POINTS, k=2),
    "op_null": frame(op=None),
    "points_missing": frame(op="knn", k=2),
    "points_string": frame(op="knn", points="abc", k=2),
    "points_single": frame(op="knn", points=[[0, 0, 0]], k=2),
    "points_ragged": frame(op="knn", points=[[0, 0, 0], [1, 1]], k=2),
    "points_nested": frame(op="knn", points=[[[0, 0], 0], [{}, 1, 1]], k=2),
    "points_nan": frame(op="knn", points=[[0, 0, 0], [float("nan"), 1, 1]],
                        k=2),
    "points_time_reversed": frame(op="knn", points=[[0, 0, 5], [1, 1, 1]],
                                  k=2),
    "budget_list": frame(op="knn", points=POINTS, k=2, budget=[1]),
    "budget_unknown_field": frame(op="knn", points=POINTS, k=2,
                                  budget={"cpu": 1}),
    "budget_bounds_overflow": b'{"op": "knn", "points": [[0,0,0],[1,1,1]], '
                              b'"k": 2, "budget": {"max_bounds": 1e400}}\n',
    "budget_epsilon_nan": frame(op="knn", points=POINTS, k=2,
                                budget={"epsilon": float("nan")}),
    "budget_deadline_word": frame(op="knn", points=POINTS, k=2,
                                  budget={"deadline": "now"}),
    "reload_without_loader": frame(op="reload"),
}


def test_hostile_frames_each_get_one_typed_reply(tree, caplog):
    names = list(HOSTILE_FRAMES)
    replies = check_exchange(tree, [HOSTILE_FRAMES[n] for n in names],
                             caplog)
    for name, reply in zip(names, replies):
        assert not reply["ok"], name
        expected = ("service_error" if name == "reload_without_loader"
                    else "invalid_request")
        assert reply["error"]["code"] == expected, (name, reply)
    oversized = replies[names.index("oversized_line")]
    assert str(MAX_REQUEST_BYTES) in oversized["error"]["message"]


def test_well_formed_frames_still_answer(tree, caplog):
    replies = check_exchange(tree, [
        frame(op="knn", points=POINTS, k=3),
        frame(op="knn", points=POINTS, k=3.0, timeout=5),
        frame(op="range", points=POINTS, radius=0.0),
        frame(op="subtrajectory_knn", points=POINTS, k=2,
              budget={"max_bounds": 0, "epsilon": 0.5}),
        frame(op="stats"),
        frame(op="health"),
    ], caplog)
    assert all(r["ok"] for r in replies)
    assert len(replies[0]["result"]) == 3


# --------------------------------------------------------------------- #
# arbitrary JSON in every field
# --------------------------------------------------------------------- #

json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=8,
)


def field(*plausible):
    """Mostly a plausible value, sometimes any JSON value at all, so the
    draws reach past the first validation check."""
    return st.sampled_from(plausible) | json_values


requests = st.fixed_dictionaries(
    {},
    optional={
        "op": field("knn", "range", "subtrajectory_knn", "ping", "stats"),
        "points": field(POINTS, POINTS[:2]),
        "k": field(1, 3, 2.0),
        "radius": field(0.0, 0.25),
        "timeout": field(None, 5, 0.5),
        "budget": field(None, {"max_bounds": 2}, {"epsilon": 0.1},
                        {"deadline": 1.0}),
    },
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(batch=st.lists(requests, min_size=1, max_size=6))
def test_any_json_in_any_field(tree, caplog, batch):
    caplog.clear()
    check_exchange(tree, [frame(**fields) for fields in batch], caplog)
