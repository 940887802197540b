"""``serve-read``: warm ``/predict`` reads over HTTP.

Set-up builds a *template* state dir through the program's own sweep API
(real simulated entries, ~10^4 of them at full scale), then brings a
``repro serve`` subprocess up on a copy of it: copy, start on an
ephemeral port, wait until it listens, and send a warm-up pass that
touches every hot scenario once (imports, the scenario-identity memo).
The bring-up is done ``SETUP_REPEATS`` times and the median counts.

The timed phase is an open loop (see :mod:`loadgen`): every keep-alive
connection gets its own seeded Poisson stream of reads at
``CONN_RATE``, each read drawn with the seed from a hot set of the
template's scenarios.  After it, a short rate staircase looks for the
highest offered rate the server keeps within the latency limit.

Every 200 answer is compared with the template's stored value.  A wrong
answer, a 4xx/5xx, a connection error, a read that never completed or a
warm read that did not hit counts as failed.
"""

from __future__ import annotations

import json
import os
import random
import re
import select
import shutil
import signal
import subprocess
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple
from urllib.parse import quote

import common
import layers
from common import Outcome
from loadgen import LoadGenerator, Request

#: Template series (fabric, variants) and the size axis, by scale.
SCALES = {
    "full": {
        "series": (
            ("torus-4x4", ("ring", "multitree", "multitree-msg", "2d-ring")),
            ("torus-4x8", ("ring", "multitree", "multitree-msg")),
            ("mesh-4x4", ("ring", "multitree", "multitree-msg")),
        ),
        "sizes": 1000,
        "hot": 48,
    },
    "tiny": {
        "series": (("torus-2x2", ("ring", "multitree")),),
        "sizes": 20,
        "hot": 8,
    },
}

SIZE_BASE = 4 << 20
SIZE_STEP = 4096
ENGINE = "lockstep-vec"

#: Offered read rate of each keep-alive connection (requests/s, Poisson
#: arrivals, mean spacing ~71 ms).  About two thirds of the reads follow
#: the previous response on their connection within the TCP delayed-ACK
#: window (~40 ms), so the median read meets whatever the transport does
#: on that window, while the backlog stays bounded even when every read
#: waits out a ~44 ms delayed ACK.
CONN_RATE = 14.0
#: A read is within the latency limit at or under this.
LATENCY_LIMIT_S = 0.100
#: read_max_rps staircase: step factor, seconds of due times per step,
#: and the search's total budget of due time.
SEARCH_FACTOR = 1.5
SEARCH_STEP_S = 2.0
SEARCH_BUDGET_S = 6.0

SETUP_REPEATS = 3
LISTEN_TIMEOUT_S = 60.0
#: The traced run replays the read trace in process this many times, so
#: the replay lasts long enough to time.
REPLAY_PASSES = 5


@dataclass
class Template:
    path: str
    entries: int
    scenarios: List[object]              # every template Scenario


def build_template(workdir: str, cfg) -> Template:
    """Fill a state dir through the sweep API: real simulated entries
    plus the compiled artifacts for every template series."""
    from repro.serve.service import ARTIFACTS_DIRNAME, CACHE_FILENAME
    from repro.sweep import ArtifactStore, PredictionCache
    from repro.sweep.runner import SweepJob, run_job

    path = os.path.join(workdir, "template")
    shutil.rmtree(path, ignore_errors=True)
    cache = PredictionCache(os.path.join(path, CACHE_FILENAME))
    artifacts = ArtifactStore(os.path.join(path, ARTIFACTS_DIRNAME))
    sizes = tuple(SIZE_BASE + k * SIZE_STEP for k in range(cfg["sizes"]))
    scenarios: List[object] = []
    for fabric, variants in cfg["series"]:
        for variant in variants:
            job = SweepJob(topology=fabric, algorithm=variant, sizes=sizes,
                           engine=ENGINE)
            run_job(job, cache, artifacts)
            scenarios.extend(job.scenarios())
    cache.save()
    return Template(path=path, entries=len(cache), scenarios=scenarios)


def expected_entries(template: Template, scenarios) -> Dict[str, Dict]:
    """Canonical scenario string -> the template's stored entry."""
    from repro.serve.service import CACHE_FILENAME
    from repro.sweep import PredictionCache

    stored = PredictionCache(
        os.path.join(template.path, CACHE_FILENAME)).entries
    topologies: Dict[str, object] = {}
    out = {}
    for scenario in scenarios:
        topology = topologies.get(scenario.topology)
        if topology is None:
            topology = topologies[scenario.topology] = scenario.build_topology()
        out[str(scenario)] = stored[scenario.cache_key(topology)]
    return out


def predict_path(text: str) -> str:
    return "/predict?scenario=" + quote(text)


# -- the server -----------------------------------------------------------


class Server:
    """A ``repro serve`` child on an ephemeral port."""

    def __init__(self, state_dir: str, workdir: str) -> None:
        self.stderr = open(os.path.join(workdir, "serve.err"), "a")
        self.proc = subprocess.Popen(
            common.repro_argv("serve", "--port", "0", "--state-dir",
                              state_dir),
            stdout=subprocess.PIPE, stderr=self.stderr, env=common.child_env(),
        )
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.monotonic() + LISTEN_TIMEOUT_S
        line = b""
        while time.monotonic() < deadline:
            ready, _w, _x = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                break
            if self.proc.poll() is not None:
                break
        match = re.search(rb"http://[^:]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError("repro serve did not start listening")
        return int(match.group(1))

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


# -- answer checking -------------------------------------------------------


def check_answer(request: Request, expected: Dict[str, float]) -> Optional[str]:
    """Why a warm read's answer is wrong, or ``None`` when it is right."""
    text = request.text
    if request.status != 200:
        return "%s %s -> %s %s" % (request.kind, text, request.status,
                                   request.error)
    try:
        payload = json.loads(request.body)
    except ValueError:
        return "unparseable body for %s" % text
    if not isinstance(payload, dict):
        return "answer for %s is not a JSON object" % text
    if payload.get("scenario") != text:
        return "answer for %s names %s" % (text, payload.get("scenario"))
    if payload.get("source") != "cache":
        return "warm read %s did not hit (source %s)" % (
            text, payload.get("source"))
    for key in ("time", "bandwidth", "max_queue_delay"):
        if payload.get(key) != expected[key]:
            return "%s: %s %r != %r" % (text, key, payload.get(key),
                                        expected[key])
    return None


def check_reads(out: Outcome, sent: List[Request], done: List[Request],
                expected: Dict[str, Dict]) -> None:
    """Count every sent read as attempted and every wrong, refused or
    missing answer as failed."""
    out.attempted += len(sent)
    for request in done:
        problem = check_answer(request, expected[request.text])
        if problem:
            out.fail(problem)
    for _ in range(len(sent) - len(done)):
        out.fail("a %s never completed" % sent[0].kind)


def send_reads(gen: LoadGenerator, out: Outcome, reads: List[Request],
               expected: Dict[str, Dict]) -> List[Request]:
    done = gen.run(reads)
    check_reads(out, reads, done, expected)
    return done


# -- inputs ----------------------------------------------------------------


def draw_hot(seed: int, template: Template, cfg) -> List[str]:
    rng = random.Random("%d-hot" % seed)
    return [str(s) for s in rng.sample(template.scenarios, cfg["hot"])]


def read_schedule(rng: random.Random, hot: List[str], start: float,
                  seconds: float, conn_rate: float,
                  conns: int) -> List[Request]:
    """Reads due in ``[start, start + seconds)``: a Poisson stream at
    ``conn_rate`` per connection, each read of a random hot scenario."""
    reads = []
    for conn in range(conns):
        due = start + rng.expovariate(conn_rate)
        while due < start + seconds:
            text = rng.choice(hot)
            reads.append(Request(due=due, path=predict_path(text),
                                 kind="read", conn=conn, text=text))
            due += rng.expovariate(conn_rate)
    return reads


# -- phases ----------------------------------------------------------------


def bring_up(template: Template, workdir: str, name: str, hot: List[str],
             out: Outcome, expected: Dict[str, Dict], conns: int):
    """Copy the template, start the server, run the warm-up pass."""
    state = os.path.join(workdir, name)
    shutil.rmtree(state, ignore_errors=True)
    shutil.copytree(template.path, state)
    server = Server(state, workdir)
    try:
        gen = LoadGenerator("127.0.0.1", server.port, conns)
        now = time.perf_counter()
        send_reads(gen, out, [
            Request(due=now, path=predict_path(text), kind="warmup",
                    conn=i % conns, text=text)
            for i, text in enumerate(hot)], expected)
    except BaseException:
        server.stop()
        raise
    return server, gen


def passes_limit(requests: List[Request]) -> bool:
    """p99 within the latency limit and no growing backlog."""
    if not requests:
        return False
    over = sum(1 for r in requests if r.latency > LATENCY_LIMIT_S)
    if over > 0.01 * len(requests):
        return False
    ordered = sorted(requests, key=lambda r: r.due)
    third = max(1, len(ordered) // 3)
    head = common.median([r.latency for r in ordered[:third]])
    tail = common.median([r.latency for r in ordered[-third:]])
    return tail - head <= 0.020


def achieved_rps(requests: List[Request]) -> float:
    first = min(r.due for r in requests)
    last = max(r.done for r in requests)
    return len(requests) / (last - first)


def search_max_rps(gen: LoadGenerator, out: Outcome, rng: random.Random,
                   hot: List[str], expected: Dict[str, Dict],
                   timed: List[Request]) -> Tuple[Optional[float], str]:
    """Highest completed rate among the offered rates that met the limit,
    starting from the timed phase and stepping by ``SEARCH_FACTOR``."""
    conns = gen.connections
    passed = failed = None
    best = None
    if passes_limit(timed):
        passed, best = CONN_RATE, achieved_rps(timed)
    else:
        failed = CONN_RATE
    spent = 0.0
    while spent + SEARCH_STEP_S <= SEARCH_BUDGET_S:
        if failed is None:
            rate = passed * SEARCH_FACTOR
        elif passed is None:
            rate = failed / SEARCH_FACTOR
        else:
            rate = (passed + failed) / 2.0
        done = send_reads(gen, out, read_schedule(
            rng, hot, time.perf_counter() + 0.05, SEARCH_STEP_S, rate,
            conns), expected)
        spent += SEARCH_STEP_S
        if passes_limit(done):
            passed = rate
            best = max(best or 0.0, achieved_rps(done))
        else:
            failed = rate
    if passed is None:
        return None, "no offered rate down to %.1f/s met the limit" % (
            failed * conns)
    note = "highest passing offered rate %.1f/s" % (passed * conns)
    if failed is None:
        note += " (search budget ended before a failing rate)"
    return best, note


def scrape(gen: LoadGenerator, path: str) -> bytes:
    [request] = gen.run(
        [Request(due=time.perf_counter(), path=path, kind="scrape")])
    if request.status != 200:
        raise RuntimeError("%s -> %s %s" % (path, request.status,
                                            request.error))
    return request.body


def scrape_metrics(gen: LoadGenerator) -> Dict[str, float]:
    """The server's ``/metrics`` samples, by series."""
    samples: Dict[str, float] = {}
    for line in scrape(gen, "/metrics").decode().splitlines():
        if line and not line.startswith("#"):
            key, _sp, value = line.rpartition(" ")
            samples[key] = float(value)
    return samples


def _hist_mean(samples: Dict[str, float], base: str, labels: str = "") -> float:
    count = samples.get("%s_count%s" % (base, labels), 0.0)
    return samples.get("%s_sum%s" % (base, labels), 0.0) / count if count else 0.0


def run(ctx) -> Outcome:
    cfg = SCALES[ctx.scale]
    out = Outcome()
    conns = common.connections_allowed()

    # -- set-up (one-time part): program import and the template.
    start = time.perf_counter()
    common.import_program()
    import repro.sweep.runner  # noqa: F401
    template = build_template(ctx.workdir, cfg)
    hot = draw_hot(ctx.seed, template, cfg)
    from repro.scenario import Scenario

    expected = expected_entries(
        template, [Scenario.parse(text) for text in hot])
    once = time.perf_counter() - start

    # -- set-up (repeated part): bring-up, then keep the last server.
    bring_ups: List[float] = []
    server = gen = None
    for index in range(1 if ctx.trace else SETUP_REPEATS):
        if server is not None:
            gen.close()
            server.stop()
        t0 = time.perf_counter()
        server, gen = bring_up(template, ctx.workdir, "state-%d" % index,
                               hot, out, expected, conns)
        bring_ups.append(time.perf_counter() - t0)
    setup_s = once + common.median(bring_ups)
    rng = random.Random("%d-reads" % ctx.seed)
    try:
        reads = read_schedule(rng, hot, time.perf_counter() + 0.05,
                              ctx.seconds, CONN_RATE, conns)
        cpu0 = common.proc_cpu_s(server.pid)
        timed = send_reads(gen, out, reads, expected)
        cpu_s = common.proc_cpu_s(server.pid) - cpu0
        rss_mb = common.proc_peak_rss_mb(server.pid)
        if ctx.trace:
            samples = scrape_metrics(gen)
            health = json.loads(scrape(gen, "/healthz"))
        else:
            max_rps, max_note = search_max_rps(gen, out, rng, hot, expected,
                                               timed)
    finally:
        gen.close()
        server.stop()

    if ctx.trace:
        return _traced_metrics(ctx, out, template, timed, samples, health,
                               hot, [r.text for r in reads])
    latencies = [r.latency for r in timed]
    out.put("setup_s", setup_s, "s")
    out.put("op_p50_ms", common.median(latencies) * 1000.0, "ms")
    out.put("peak_rss_mb", rss_mb, "MB")
    out.line("read_p50_ms", out.metrics["op_p50_ms"], "ms",
             "%d warm reads, Poisson %.0f/s on each of %d connections" % (
                 len(latencies), CONN_RATE, conns))
    _tail_line(out, "read", latencies, 99.0)
    out.line("read_max_rps", max_rps, "1/s", max_note)
    out.line("cpu_ms_per_op", cpu_s * 1000.0 / len(timed), "ms",
             "server CPU per read in the timed phase")
    late = [r.late for r in timed]
    out.line("client_late_ms", _late_tail(late) * 1000.0, "ms",
             "generator lateness (p99, or max under 1000 samples)")
    out.line("template_entries", template.entries, "count",
             "real entries in the template store")
    return out


def _tail_line(out: Outcome, name: str, values: List[float],
               q: float) -> None:
    """The ``q``-th percentile when ten samples lie beyond it; otherwise
    n/a plus the highest percentile that has them."""
    value = common.percentile(values, q)
    if value is not None:
        out.line("%s_p%d_ms" % (name, q), value * 1000.0, "ms",
                 "%d samples" % len(values))
        return
    supported = 100.0 * (1.0 - 10.0 / len(values)) if len(values) > 20 else None
    detail = "%d samples < %d" % (len(values), round(1000.0 / (100.0 - q)))
    if supported is not None:
        detail += "; p%.1f = %.4g ms" % (
            supported, common.percentile(values, supported) * 1000.0)
    out.line("%s_p%d_ms" % (name, q), None, "ms", detail)


def _late_tail(late: List[float]) -> float:
    tail = common.percentile(late, 99.0)
    return tail if tail is not None else max(late, default=0.0)


# -- traced run --------------------------------------------------------------


def _replay(service, texts: List[str], recorder=None) -> None:
    """The handler's in-process calls for each query, in trace order."""
    from repro.scenario import Scenario

    log = service.request_log
    for text in texts:
        if recorder is not None:
            with recorder.span("serve.parse"):
                scenario = Scenario.parse(text)
        else:
            scenario = Scenario.parse(text)
        entry, source = service.predict(scenario)
        service.identity(scenario)
        log.append({"ts": 0.0, "endpoint": "/predict", "scenario": text,
                    "source": source, "status": 200 if entry else 202})


def _open_service(template: Template, workdir: str, name: str):
    from repro.metrics import MetricsRegistry
    from repro.serve.service import (
        REQUEST_LOG_FILENAME, PredictionService, RequestLog)

    state = os.path.join(workdir, name)
    shutil.rmtree(state, ignore_errors=True)
    shutil.copytree(template.path, state)
    return PredictionService(
        state, registry=MetricsRegistry(),
        request_log=RequestLog(os.path.join(state, REQUEST_LOG_FILENAME)))


def _traced_metrics(ctx, out, template, timed, samples, health, hot,
                    reads) -> Outcome:
    from repro.metrics import MetricsRegistry, collecting
    from tracing import SpanRecorder, hooked

    import workload_plan

    metrics = layers.empty()
    metrics["cli.import_s"] = workload_plan.import_probe_s(ctx.workdir)
    label = '{endpoint="/predict"}'
    handler_s = _hist_mean(samples, "repro_serve_request_time", label)
    metrics["serve.handler_ms"] = handler_s * 1000.0
    served = [r.service for r in timed]
    metrics["serve.transport_ms"] = (
        (sum(served) / len(served) - handler_s) * 1000.0 if served else 0.0)
    metrics["serve.enqueued"] = samples.get("repro_serve_enqueued_total", 0.0)
    metrics["serve.queue_full"] = samples.get("repro_serve_queue_full_total",
                                              0.0)
    metrics["serve.queue_depth_max"] = int(health["queue_depth"])
    metrics["serve.compile_ms"] = _hist_mean(
        samples, "repro_serve_compile_time") * 1000.0
    metrics["client.late_ms"] = _late_tail([r.late for r in timed]) * 1000.0

    # The same reads in process, untraced then traced.
    untraced = _open_service(template, ctx.workdir, "replay-untraced")
    try:
        _replay(untraced, hot)  # the warm-up pass, as over HTTP
        t0 = time.perf_counter()
        _replay(untraced, reads * REPLAY_PASSES)
        untraced_s = time.perf_counter() - t0
    finally:
        untraced.close()
    service = _open_service(template, ctx.workdir, "replay-traced")
    recorder = SpanRecorder(run_id="%s-%d" % (ctx.workload, ctx.seed))
    registry = MetricsRegistry()
    try:
        _replay(service, hot)
        with hooked(recorder), collecting(registry):
            with recorder.span("workload") as root:
                _replay(service, reads * REPLAY_PASSES, recorder)
    finally:
        service.close()
    layers.fold_spans(metrics, recorder)
    layers.fold_fallbacks(metrics, registry.counters)
    replayed = recorder.subtree(root)
    for name, metric in (("serve.parse", "serve.parse_us"),
                         ("serve.identity", "serve.identity_us"),
                         ("serve.predict", "serve.predict_us"),
                         ("serve.request_log", "serve.request_log_us")):
        spans = [s for s in replayed if s.name == name]
        if spans:
            metrics[metric] = sum(s.duration for s in spans) / len(spans) * 1e6
    metrics["artifacts.hits"] = service.artifacts.hits
    metrics["artifacts.misses"] = service.artifacts.misses
    from repro.serve.service import ARTIFACTS_DIRNAME

    metrics["artifacts.bytes"] = layers.dir_bytes(
        os.path.join(service.state_dir, ARTIFACTS_DIRNAME))
    metrics["cache.entries"] = len(service.cache)
    probes = service.cache.hits + service.cache.misses
    metrics["cache.hit_ratio"] = service.cache.hits / probes if probes else 0.0
    unattributed = recorder.self_times()[root.span_id]
    metrics["trace.unattributed_frac"] = unattributed / root.duration
    metrics["trace.overhead_frac"] = (root.duration - untraced_s) / untraced_s
    recorder.dump(os.path.join(ctx.workdir, "spans.jsonl"))
    if ctx.keep_spans:
        shutil.copy(os.path.join(ctx.workdir, "spans.jsonl"), ctx.keep_spans)
    for name, unit in layers.PER_LAYER:
        out.put(name, metrics[name], unit)
    out.report.extend(workload_plan.self_time_table(recorder, root))
    return out
