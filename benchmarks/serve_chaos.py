"""Chaos harness for the query service front door (``repro serve``).

Boots the real ``python -m repro serve`` subprocess and throws hostile
traffic at it in phases:

- **overload burst** — more concurrent clients than ``max_active +
  max_queued`` can hold, asserting every response is one of the four
  documented outcomes: a 200 with a complete NDJSON terminator, a 429
  with ``Retry-After``, or a 503 (``draining`` / ``breaker_open``);
- **slow-loris** — clients that dribble header bytes and stall, which
  must be cut off within the client timeout without wedging healthy
  traffic;
- **stalled reader** — clients that read a response head and then stop
  consuming an answer larger than the socket buffers; each handler must
  give up within the client timeout (``serve.aborted_connections``)
  and free its admission slot for the next request;
- **poison corpus** — repeated failing queries drive the per-corpus
  breaker CLOSED -> DEGRADED -> OPEN while a healthy corpus keeps
  serving 200s;
- **worker kills** — crash sentinels in a pool dispatch
  (``inject_faults``) crash workers mid-query; the response must still
  be a complete 200, never a truncated stream;
- **SIGTERM mid-response** — the in-flight stream ends with a ``done``
  or ``interrupted`` terminator, late queries get an explicit 503
  ``draining``, and the process exits 0.

The contract under test: the service **sheds rather than stalls**.  A
hung connection, a truncated-but-200 stream, or an undocumented status
is a violation.  Exit status 0 when the contract held, 1 otherwise
(CI-friendly)::

    PYTHONPATH=src python benchmarks/serve_chaos.py --quick
    PYTHONPATH=src python benchmarks/serve_chaos.py --clients 24
"""

from __future__ import annotations

import argparse
import json
import signal
import socket
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

sys.path.insert(0, str(SRC))

from repro.resilience.faults import CRASH_SENTINEL  # noqa: E402

#: Hard ceiling on any single client operation.  A request that takes
#: longer than this counts as a hung connection — the one thing the
#: front door must never produce.
STALL_LIMIT = 30.0

TERMINATOR_KEYS = ("done", "interrupted", "error")


def build_corpora(workdir: Path, quick: bool) -> dict[str, Path]:
    """Write the corpus files each chaos phase queries."""
    pad = "x" * 32
    burst = b"".join(
        b'{"a": %d, "pad": "%s"}\n' % (i, pad.encode())
        for i in range(800 if quick else 2000)
    )
    # ~8 MB of answer for the stalled-reader and SIGTERM phases: more
    # than the socket buffers between server and a stopped client absorb.
    wide = b'{"a": "%s"}\n' % (b"w" * 2048) * 4000
    poison = b'{"a": 1\n{"a": \n{broken\n' * 4
    crashy = b"".join(
        CRASH_SENTINEL + b"\n" if i % 40 == 7 else b'{"a": %d}\n' % i
        for i in range(200)
    )
    paths = {}
    for name, payload in (
        ("burst", burst), ("wide", wide), ("poison", poison), ("crashy", crashy)
    ):
        path = workdir / f"{name}.jsonl"
        path.write_bytes(payload)
        paths[name] = path
    # Single-document corpus: exercises the shared stage-1 index path
    # (corpus.indexed + sidecar I/O), which must run on the executor —
    # the loopguard check below would catch it blocking the loop.
    doc = workdir / "doc.json"
    doc.write_bytes(b'{"a": 7, "items": [1, 2, 3], "pad": "%s"}' % (b"y" * 64))
    paths["doc"] = doc
    return paths


def boot(corpora: dict[str, Path], *extra: str) -> tuple[subprocess.Popen, int]:
    cmd = [sys.executable, "-m", "repro", "serve", "--port", "0", "--loopguard"]
    for name, path in corpora.items():
        format_suffix = ":json" if path.suffix == ".json" else ""
        cmd += ["--corpus", f"{name}={path}{format_suffix}"]
    cmd += list(extra)
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            # repro: ignore[RS002] -- harness plumbing: the server subprocess died before the contract run ever started; repro.errors is the library's surface, not the harness's
            raise RuntimeError(f"server died at boot (rc={proc.poll()})")
        if line.startswith("serving on "):
            return proc, int(line.rsplit(":", 1)[1])
    # repro: ignore[RS002] -- harness plumbing: boot never completed, nothing contract-shaped to classify; repro.errors is the library's surface, not the harness's
    raise RuntimeError("server never reported its port")


class Outcomes:
    """Tally of classified responses + contract violations."""

    def __init__(self) -> None:
        self.served: list[float] = []  # latencies of complete 200s
        self.shed = 0
        self.unavailable = 0
        self.violations: list[str] = []

    def classify(self, phase: str, status: int, headers: dict,
                 body: bytes, elapsed: float) -> None:
        if status == 200:
            lines = [ln for ln in body.splitlines() if ln.strip()]
            try:
                last = json.loads(lines[-1]) if lines else {}
            except ValueError:
                last = {}
            if any(key in last for key in TERMINATOR_KEYS):
                self.served.append(elapsed)
            else:
                self.violations.append(
                    f"{phase}: truncated 200 stream ({len(lines)} lines, "
                    f"no terminator)"
                )
        elif status == 429:
            if "retry-after" in headers:
                self.shed += 1
            else:
                self.violations.append(f"{phase}: 429 without Retry-After")
        elif status == 503:
            error = {}
            try:
                error = json.loads(body)
            except ValueError:
                pass
            if error.get("error") in ("draining", "breaker_open"):
                self.unavailable += 1
            else:
                self.violations.append(f"{phase}: unexplained 503 {body!r:.120}")
        else:
            self.violations.append(f"{phase}: undocumented status {status}")

    def stall(self, phase: str, detail: str) -> None:
        self.violations.append(f"{phase}: HUNG CONNECTION ({detail})")


def query(port: int, body: dict, timeout: float = STALL_LIMIT):
    """One POST /query; returns (status, headers, body, elapsed)."""
    conn = HTTPConnection("127.0.0.1", port, timeout=timeout)
    start = time.monotonic()
    try:
        conn.request("POST", "/query", body=json.dumps(body).encode())
        response = conn.getresponse()
        payload = response.read()
        return response.status, dict(response.getheaders()), payload, \
            time.monotonic() - start
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# phases


def phase_burst(port: int, outcomes: Outcomes, clients: int, rounds: int) -> None:
    def one_client(_):
        for _ in range(rounds):
            try:
                status, headers, body, dt = query(
                    port, {"corpus": "burst", "query": "$.a"}
                )
            except (TimeoutError, OSError) as exc:
                outcomes.stall("burst", repr(exc))
                return
            outcomes.classify("burst", status, headers, body, dt)

    with ThreadPoolExecutor(max_workers=clients) as pool:
        list(pool.map(one_client, range(clients)))


def phase_slow_loris(port: int, outcomes: Outcomes, count: int,
                     client_timeout: float) -> None:
    socks = []
    for _ in range(count):
        sock = socket.create_connection(("127.0.0.1", port), timeout=STALL_LIMIT)
        sock.sendall(b"POST /query HTTP/1.1\r\nhost: loris\r\nx-dribble: ")
        socks.append(sock)
    # While the loris sockets sit half-sent, healthy traffic still flows.
    try:
        status, headers, body, dt = query(port, {"corpus": "burst", "query": "$.a"})
        outcomes.classify("loris-bystander", status, headers, body, dt)
    except (TimeoutError, OSError) as exc:
        outcomes.stall("loris-bystander", repr(exc))
    # The server must cut every loris off within its client timeout.
    cutoff = client_timeout + 10
    for i, sock in enumerate(socks):
        sock.settimeout(cutoff)
        try:
            while sock.recv(65536):
                pass  # drain the 400 the server writes before closing
        except TimeoutError:
            outcomes.stall("loris", f"socket {i} not cut off in {cutoff:.0f}s")
        except OSError:
            pass  # reset also counts as cut off
        finally:
            sock.close()


def aborted_connections(port: int) -> int:
    """``serve.aborted_connections`` as the server's ``/metrics`` reports it."""
    conn = HTTPConnection("127.0.0.1", port, timeout=STALL_LIMIT)
    try:
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode()
    finally:
        conn.close()
    for line in text.splitlines():
        if line.startswith("repro_serve_aborted_connections "):
            return int(float(line.split()[1]))
    return 0


def send_wide_query(port: int) -> socket.socket:
    """POST ``$.a`` over the ``wide`` corpus from a socket with a 4 KiB
    receive buffer, so the answer stalls wherever the caller stops
    reading; returns the socket before any of the response is read."""
    payload = json.dumps({"corpus": "wide", "query": "$.a"}).encode()
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.settimeout(STALL_LIMIT)
    sock.connect(("127.0.0.1", port))
    sock.sendall(
        b"POST /query HTTP/1.1\r\nhost: chaos\r\n"
        + b"content-length: %d\r\n\r\n" % len(payload) + payload
    )
    return sock


def phase_stalled_reader(port: int, outcomes: Outcomes, count: int,
                         client_timeout: float) -> None:
    """``count`` clients (one per admission slot) read the response head
    of a large answer, then stop reading."""
    before = aborted_connections(port)
    socks = []
    try:
        for _ in range(count):
            sock = send_wide_query(port)
            socks.append(sock)
            head = b""
            while b"\r\n\r\n" not in head:
                data = sock.recv(1)
                if not data:
                    break
                head += data
            if not head.startswith(b"HTTP/1.1 200"):
                outcomes.violations.append(
                    f"stalled-reader: expected a 200 head, got {head[:40]!r}"
                )
                return
        # Every handler must give up on its own, client_timeout after its
        # last drain stalled; the engine time to fill the buffers is slack.
        cutoff = client_timeout + 10
        start = time.monotonic()
        while aborted_connections(port) < before + count:
            if time.monotonic() - start > cutoff:
                outcomes.stall(
                    "stalled-reader",
                    f"handlers not cut off in {cutoff:.0f}s "
                    f"({aborted_connections(port) - before}/{count} aborted)",
                )
                return
            time.sleep(0.05)
        # The stalled requests held every slot; they must be free again.
        try:
            status, headers, body, dt = query(port, {"corpus": "burst", "query": "$.a"})
            outcomes.classify("stalled-bystander", status, headers, body, dt)
            if status != 200:
                outcomes.violations.append(
                    f"stalled-reader: next query got {status}, slots not released"
                )
        except (TimeoutError, OSError) as exc:
            outcomes.stall("stalled-bystander", repr(exc))
    finally:
        for sock in socks:
            sock.close()


def phase_breaker(port: int, outcomes: Outcomes) -> None:
    opened = False
    for _ in range(8):
        try:
            status, headers, body, dt = query(
                port, {"corpus": "poison", "query": "$.a"}
            )
        except (TimeoutError, OSError) as exc:
            outcomes.stall("breaker", repr(exc))
            return
        outcomes.classify("breaker", status, headers, body, dt)
        if status == 503:
            opened = True
            if "retry-after" not in headers:
                outcomes.violations.append("breaker: open 503 without Retry-After")
            break
    if not opened:
        outcomes.violations.append("breaker: poison corpus never opened the breaker")
    # Breakers are per-corpus: the healthy corpus is unaffected.
    try:
        status, headers, body, dt = query(port, {"corpus": "burst", "query": "$.a"})
        if status != 200:
            outcomes.violations.append(
                f"breaker: healthy corpus collateral damage (status {status})"
            )
        else:
            outcomes.classify("breaker-bystander", status, headers, body, dt)
    except (TimeoutError, OSError) as exc:
        outcomes.stall("breaker-bystander", repr(exc))


def phase_worker_kills(port: int, outcomes: Outcomes, rounds: int) -> None:
    for _ in range(rounds):
        try:
            status, headers, body, dt = query(
                port,
                {"corpus": "crashy", "query": "$.a", "workers": 1,
                 "inject_faults": True},
            )
        except (TimeoutError, OSError) as exc:
            outcomes.stall("worker-kill", repr(exc))
            return
        outcomes.classify("worker-kill", status, headers, body, dt)
        if status == 200:
            last = json.loads(body.splitlines()[-1])
            if last.get("done") and not last.get("worker_crashes"):
                outcomes.violations.append(
                    "worker-kill: crash sentinels never crashed a worker"
                )


def phase_doc(port: int, outcomes: Outcomes, rounds: int) -> None:
    """Single-document queries: cold stage-1 build, then warm cache."""
    for attempt in range(rounds):
        try:
            status, headers, body, dt = query(port, {"corpus": "doc", "query": "$.a"})
        except (TimeoutError, OSError) as exc:
            outcomes.stall("doc", repr(exc))
            return
        outcomes.classify("doc", status, headers, body, dt)
        if status != 200:
            outcomes.violations.append(
                f"doc: single-document query #{attempt} got {status}, expected 200"
            )


def check_loopguard(proc: subprocess.Popen, outcomes: Outcomes) -> None:
    """The server self-reports loop stalls >= 50ms; zero is the contract.

    The static gate (RS012) proves no known blocking call reaches the
    loop; this is the runtime cross-check over everything the chaos run
    just exercised.  Must be called after the server exited.
    """
    tail = proc.stdout.read() or ""
    for line in tail.splitlines():
        if line.startswith("loopguard:"):
            try:
                events = int(line.split()[1])
            except (IndexError, ValueError):
                events = -1
            if events != 0:
                outcomes.violations.append(
                    f"event loop blocked: {line.strip()!r}"
                )
            return
    outcomes.violations.append(
        "loopguard: server printed no report line (booted with --loopguard)"
    )


def phase_sigterm(proc: subprocess.Popen, port: int, outcomes: Outcomes) -> None:
    sock = send_wide_query(port)
    start = time.monotonic()
    # Headers + first lines; the rest stalls in the socket buffers, so
    # the stream is still in flight when the signal lands.
    sock.recv(4096)
    time.sleep(0.2)
    proc.send_signal(signal.SIGTERM)
    time.sleep(0.3)
    # Late arrivals get an explicit 503, not a refused connection.
    try:
        status, headers, body, dt = query(port, {"corpus": "burst", "query": "$.a"})
        outcomes.classify("sigterm-late", status, headers, body, dt)
        if status != 503:
            outcomes.violations.append(
                f"sigterm: late query got {status}, expected 503 draining"
            )
    except (TimeoutError, OSError) as exc:
        outcomes.stall("sigterm-late", repr(exc))
    # The in-flight stream must end with a terminator line.
    chunks = []
    sock.settimeout(STALL_LIMIT)
    try:
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    except TimeoutError:
        outcomes.stall("sigterm", "in-flight stream never finished")
    sock.close()
    raw = b"".join(chunks)
    last = {}
    for piece in raw.split(b"\r\n"):
        piece = piece.strip()
        if piece.startswith(b"{"):
            try:
                last = json.loads(piece)
            except ValueError:
                pass
    if any(key in last for key in TERMINATOR_KEYS):
        outcomes.served.append(time.monotonic() - start)
    else:
        outcomes.violations.append("sigterm: in-flight stream had no terminator")
    try:
        code = proc.wait(timeout=60)
        if code != 0:
            outcomes.violations.append(f"sigterm: server exited {code}, expected 0")
    except subprocess.TimeoutExpired:
        outcomes.stall("sigterm", "server never exited after SIGTERM")
        proc.kill()


# ---------------------------------------------------------------------------


def percentile(values: list[float], fraction: float) -> float:
    if not values:
        return float("nan")
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (fewer clients, one round each)")
    parser.add_argument("--clients", type=int, default=None,
                        help="burst-phase concurrency (default 16, quick 8)")
    args = parser.parse_args()

    clients = args.clients or (8 if args.quick else 16)
    rounds = 1 if args.quick else 3
    loris = 3 if args.quick else 6
    client_timeout = 2.0
    max_active = 2

    with tempfile.TemporaryDirectory(prefix="serve-chaos-") as tmp:
        corpora = build_corpora(Path(tmp), args.quick)
        proc, port = boot(
            corpora,
            "--max-active", str(max_active), "--max-queued", "2",
            "--client-timeout", str(client_timeout),
            "--default-budget", "20", "--max-budget", "60",
            "--drain-grace", "30", "--batch-size", "128",
            "--degrade-after", "1", "--open-after", "2",
            "--breaker-cooldown", "60", "--allow-fault-injection",
        )
        outcomes = Outcomes()
        try:
            print(f"chaos target: 127.0.0.1:{port} "
                  f"(clients={clients} rounds={rounds} loris={loris})")
            phase_burst(port, outcomes, clients, rounds)
            print(f"  burst: {len(outcomes.served)} served, "
                  f"{outcomes.shed} shed")
            phase_doc(port, outcomes, rounds=3)
            print("  doc: single-document path served")
            phase_slow_loris(port, outcomes, loris, client_timeout)
            print("  slow-loris: cut off")
            phase_stalled_reader(port, outcomes, max_active, client_timeout)
            print("  stalled-reader: cut off, slots released")
            phase_breaker(port, outcomes)
            print("  breaker: opened and isolated")
            phase_worker_kills(port, outcomes, rounds=1 if args.quick else 2)
            print("  worker-kill: recovered")
            phase_sigterm(proc, port, outcomes)
            print("  sigterm: drained")
            check_loopguard(proc, outcomes)
            print("  loopguard: report checked")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

    print()
    print(f"served   : {len(outcomes.served)}")
    print(f"shed 429 : {outcomes.shed}")
    print(f"503s     : {outcomes.unavailable}")
    print(f"p50 latency: {percentile(outcomes.served, 0.50) * 1e3:8.1f} ms")
    print(f"p99 latency: {percentile(outcomes.served, 0.99) * 1e3:8.1f} ms")
    if not outcomes.served:
        outcomes.violations.append("no request was ever served")
    if outcomes.violations:
        print(f"\nCONTRACT VIOLATIONS ({len(outcomes.violations)}):")
        for violation in outcomes.violations:
            print(f"  - {violation}")
        return 1
    print("\ncontract held: shed, never stalled")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
