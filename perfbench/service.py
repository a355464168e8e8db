"""The ``service_mixed`` workload: HTTP front-end + RetimeService.

Set-up starts ``RetimeService(workers=nproc)`` behind the asyncio HTTP
front-end on a private cache directory, forks the workers, and submits
the four datapath designs as ECO bases.  The timed phase drives a
closed loop from this process: ``nproc`` client threads, each on its own
keep-alive connection, send the next request only when the previous
``wait=true`` request has returned.  The seeded, shuffled mix per pass:

* ``cold`` — the mapped retime flow (``flow=retime``) with ``verify`` on
  re-seeded C1/C2/C3/C5/C7/C8 variants;
* ``resub`` — each cold job's mapped output submitted again the same
  way, queued when the cold job returns;
* ``eco`` — ``{base_key, edit}`` carry->mux retypes of a datapath base
  (``flow=mcretime``, ``xc4000e``), each request sent twice;
* ``explain`` — ``explain=true`` min-area jobs on further C variants,
  whose certificate payload is fetched from ``GET /explain/<id>`` after
  the latency is taken.

A 429 or a failed job is a failed operation.  After the timed phase every
output is checked: retimed netlists by an in-process sequential
refinement check, explanations by ``validate_explanation``, ECO results
byte-for-byte against an in-process cold solve.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os
import random
import shutil
import sys
import tempfile
import threading
import time
import traceback
from collections import defaultdict, deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

from repro import obs
from repro.eco import apply_edit_script
from repro.mcretime import intern_work_graph, mc_retime
from repro.netlist import GateFn, read_blif, write_blif
from repro.obs import validate_explanation
from repro.service import RetimeClient, RetimeService, make_server
from repro.service.client import ServiceError
from repro.synth import DATAPATH_NAMES, build_datapath, design_spec, generate
from repro.timing import XC4000E_DELAY
from repro.tools.top import parse_metrics
from repro.verify import check_sequential

from common import Op, Pass, tree_cpu
from layers import (
    COUNTERS,
    NETLIST_WRAPS,
    WORKER_NETLIST_SPANS,
    LayerClock,
    in_spans,
    resolve_attempts,
)

NPROC = os.cpu_count() or 1
C_DESIGNS = ["C1", "C2", "C3", "C5", "C7", "C8"]
SCALE = 0.3
#: per pass and C design
COLD_VARIANTS = 6
EXPLAIN_VARIANTS = 2
#: explain variants come from a generator-seed range of their own
EXPLAIN_SEED0 = 1000
#: per pass and datapath base; each edit is sent twice
ECO_EDITS = 2
VERIFY_CYCLES = 64
REQUEST_TIMEOUT = 120.0

#: worker span -> layer metric; each span's *self* time is charged
SPAN_LAYERS = {
    "engine.build": "mcretime.build_s",
    "engine.bounds": "mcretime.bounds_s",
    "engine.sharing": "mcretime.sharing_s",
    "engine.minperiod": "retime.minperiod_s",
    "minperiod.search": "retime.minperiod_s",
    "minperiod.feas": "retime.minperiod_s",
    "engine.minarea": "retime.minarea_s",
    "minarea.solve": "retime.minarea_s",
    "engine.relocate": "mcretime.relocate_s",
    "engine.explain": "explain.build_s",
    "flow.optimize": "opt.optimize_s",
    "flow.map": "techmap.map_s",
    "flow.remap": "techmap.remap_s",
    "flow.premap": "techmap.remap_s",
    "sta.analyze": "timing.sta_s",
    "verify.check": "verify.check_s",
    "verify.sequential": "verify.check_s",
    "verify.pipeline": "verify.check_s",
    "verify.cslow": "verify.check_s",
    "flow.verify": "verify.check_s",
    "flow.pipeline": "pipeline.transform_s",
    "flow.cslow": "pipeline.transform_s",
    "pipeline.insert": "pipeline.transform_s",
    "cslow.replicate": "pipeline.transform_s",
    "eco.diff": "eco.diff_s",
    "eco.resolve": "eco.resolve_s",
    "eco.patch": "eco.resolve_s",
    "eco.prefix": "eco.resolve_s",
    "eco.retime": "eco.resolve_s",
    "netlist.parse": "netlist.parse_s",
    "netlist.write": "netlist.write_s",
}


@dataclasses.dataclass
class Request:
    kind: str
    body: dict
    #: the netlist the job retimes (ECO: the edited base), for checks
    netlist: str | None = None


@dataclasses.dataclass
class Reply:
    request: Request
    latency: float
    record: dict | None
    error: str | None = None
    explanation: dict | None = None


def _job_error(record: dict) -> str:
    error = (record.get("result") or {}).get("error") or {}
    return f"job {record.get('state')}: {error.get('type')}: {error.get('message', '')[:200]}"


def _scrape(text: str) -> dict[str, float]:
    """``GET /metrics`` text -> metric name summed over label sets."""
    return {name: sum(v.values()) for name, v in parse_metrics(text).items()}


def _cold_solve(text: str) -> str:
    """The netlist a cold (non-ECO) solve of *text* produces."""
    return write_blif(mc_retime(read_blif(text), delay_model=XC4000E_DELAY).circuit)


def carry_to_mux(base_text: str, gate: str) -> tuple[list[dict], str]:
    """The edit script retyping carry *gate* to a mux, and the edited
    base as the server sees it."""
    edit = [{"op": "retype_gate", "name": gate, "fn": "mux"}]
    return edit, write_blif(apply_edit_script(read_blif(base_text), edit))


def carries(base_text: str) -> list[str]:
    """Carry cells, by the names the server parses them back under."""
    return sorted(
        g.name for g in read_blif(base_text).gates.values()
        if g.fn is GateFn.CARRY
    )


class ServiceMixed:
    name = "service_mixed"
    #: roughly how long one pass takes on a 2-CPU host
    pass_seconds = 22.0

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        self.service: RetimeService | None = None
        self.server = None
        self.thread: threading.Thread | None = None
        self.cache_dir: str | None = None
        self.url = ""
        self.bases: dict[str, str] = {}
        self.base_texts: dict[str, str] = {}
        self.carries: dict[str, list[str]] = {}
        self.requests: list[Request] = []
        #: every reply of the run (checked), and those of the latest pass
        self.replies: list[Reply] = []
        self.last_replies: list[Reply] = []
        self.explain_valid = 0
        self.explain_checked = 0

    # -- lifecycle -----------------------------------------------------

    def _start(self, traced: bool) -> None:
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.tmp)
        self.service = RetimeService(
            workers=NPROC,
            cache_dir=self.cache_dir,
            # a run ledger switches on in-memory worker tracing, so each
            # job's metrics carry its span totals and work counters
            ledger=Path(self.cache_dir) / "ledger.jsonl" if traced else None,
        )
        self.server = make_server(self.service, port=0)
        self.url = "http://%s:%d" % self.server.server_address
        self.thread = threading.Thread(
            target=self.server.serve_forever, name="bench-http", daemon=True
        )
        self.thread.start()
        with ThreadPoolExecutor(NPROC) as pool:
            keys = list(pool.map(self._submit_base, DATAPATH_NAMES))
        self.bases = dict(zip(DATAPATH_NAMES, keys))

    def _submit_base(self, name: str) -> str:
        with RetimeClient(self.url, timeout=REQUEST_TIMEOUT) as client:
            record = client.retime(
                self.base_texts[name],
                name=name,
                flow="mcretime",
                delay_model="xc4000e",
            )
        if record["state"] != "done":
            raise RuntimeError(f"base {name}: {_job_error(record)}")
        return record["design_key"]

    def close(self) -> None:
        try:
            if self.server is not None:
                self.server.shutdown()
                self.server.server_close()
            if self.thread is not None:
                self.thread.join(timeout=30)
        finally:
            if self.service is not None:
                self.service.close()
            if self.cache_dir is not None:
                shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.server = self.thread = self.service = self.cache_dir = None

    def setup(self) -> None:
        self.close()
        self.base_texts = {
            name: write_blif(build_datapath(name).circuit)
            for name in DATAPATH_NAMES
        }
        self.carries = {
            name: carries(text) for name, text in self.base_texts.items()
        }
        self.requests = self._inputs(0)
        self._start(traced=False)

    # -- inputs --------------------------------------------------------

    def _inputs(self, index: int) -> list[Request]:
        """Pass *index*'s requests.

        The C variants are a fixed pool (generator seeds ``index * N`` to
        ``index * N + N - 1`` per design), the same for every ``--seed``:
        which variants a run draws would otherwise move every sum and
        percentile by more than any bound worth keeping.  The seed picks
        the ECO edit targets and the request order.
        """
        rng = random.Random(f"{self.seed}/{index}")

        def variant(name: str, seed: int) -> str:
            spec = dataclasses.replace(design_spec(name, SCALE), seed=seed)
            return write_blif(generate(spec).circuit)

        requests = []
        for name in C_DESIGNS:
            for k in range(COLD_VARIANTS):
                text = variant(name, index * COLD_VARIANTS + k)
                requests.append(Request("cold", {
                    "netlist": text, "name": name, "flow": "retime",
                    "verify": True, "verify_cycles": VERIFY_CYCLES,
                }, text))
            for k in range(EXPLAIN_VARIANTS):
                text = variant(name, EXPLAIN_SEED0 + index * EXPLAIN_VARIANTS + k)
                requests.append(Request("explain", {
                    "netlist": text, "name": name, "flow": "mcretime",
                    "delay_model": "xc4000e", "explain": True,
                }, text))
        for base in DATAPATH_NAMES:
            for gate in rng.sample(self.carries[base], ECO_EDITS):
                edit, edited = carry_to_mux(self.base_texts[base], gate)
                request = Request("eco", {
                    "base": base, "edit": edit, "flow": "mcretime",
                    "delay_model": "xc4000e",
                }, edited)
                requests += [request, request]
        rng.shuffle(requests)
        return requests

    # -- timed phase ---------------------------------------------------

    def _body(self, request: Request) -> dict:
        body = dict(request.body, wait=True)
        if request.kind == "eco":
            body["base_key"] = self.bases[body.pop("base")]
        return body

    def _send(self, client: RetimeClient, request: Request) -> Reply:
        t0 = time.perf_counter()
        try:
            # the ECO body has no netlist, so it goes through the raw
            # request; ServiceOverloadedError (429) is a ServiceError
            record = client._request("POST", "/retime", self._body(request))
        except ServiceError as exc:
            return Reply(request, time.perf_counter() - t0, None,
                         f"http {exc.status}: {exc}")
        except Exception as exc:  # noqa: BLE001 - a lost request is a failed op
            traceback.print_exc(file=sys.stderr)
            return Reply(request, time.perf_counter() - t0, None, repr(exc))
        reply = Reply(request, time.perf_counter() - t0, record)
        if record.get("state") != "done":
            reply.error = _job_error(record)
        elif request.kind == "explain":
            try:
                reply.explanation = client._request(
                    "GET", f"/explain/{record['job_id']}"
                )
            except ServiceError as exc:
                reply.error = f"explain fetch: {exc}"
        return reply

    def run_pass(self, index: int) -> Pass:
        requests = self.requests if index == 0 else self._inputs(index)
        pending = deque(requests)
        replies: list[Reply] = []
        cond = threading.Condition()
        inflight = [0]

        def client_loop() -> None:
            with RetimeClient(self.url, timeout=REQUEST_TIMEOUT) as client:
                while True:
                    with cond:
                        while not pending and inflight[0]:
                            cond.wait()
                        if not pending:
                            return
                        request = pending.popleft()
                        inflight[0] += 1
                    reply = self._send(client, request)
                    with cond:
                        replies.append(reply)
                        if request.kind == "cold" and reply.error is None:
                            # a client resubmits the mapped netlist it got back
                            output = reply.record["result"]["output"]
                            slot = random.Random(output).randint(0, len(pending))
                            pending.insert(slot, Request("resub", {
                                **request.body, "netlist": output,
                            }, output))
                        inflight[0] -= 1
                        cond.notify_all()

        threads = [
            threading.Thread(target=client_loop, name=f"bench-client-{i}")
            for i in range(NPROC)
        ]
        t0 = time.perf_counter()
        c0 = tree_cpu()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t0
        cpu = tree_cpu() - c0
        self.replies.extend(replies)
        self.last_replies = replies
        ops = []
        for r in replies:
            final = None if r.error else r.record["result"]["metrics"]["final"]
            ops.append(Op(
                r.request.kind, r.latency, r.error is None,
                qor=final and (final["delay"], final["n_ff"], final["n_lut"]),
                error=r.error,
            ))
        # pass-0 qor must not depend on completion order
        ops.sort(key=lambda op: (op.kind, op.qor or (0.0, 0, 0)))
        return Pass(wall, cpu, ops)

    # -- checks --------------------------------------------------------

    def expected_qor(self, expected: dict) -> dict[str, float]:
        """Pass 0's expected ``qor.*`` sums at this seed.

        The cold, resubmitted and explain jobs are the same at every
        seed; their sums are recorded as they are.  The seed picks the
        ECO edits, each of which adds its entry of the ``eco_qor`` table
        (``perfbench/expected_eco.py``).
        """
        fixed = expected["qor"][self.name]
        periods = [fixed["qor.period_sum"]]
        ffs, luts = fixed["qor.ff_sum"], fixed["qor.lut_sum"]
        for request in self.requests:
            if request.kind == "eco":
                table = expected["eco_qor"][request.body["base"]]
                delay, n_ff, n_lut = table[request.body["edit"][0]["name"]]
                periods.append(delay)
                ffs += n_ff
                luts += n_lut
        return {
            "qor.period_sum": math.fsum(periods),
            "qor.ff_sum": ffs,
            "qor.lut_sum": luts,
        }

    def check(self, passes: list[Pass]) -> list[str]:
        errors: list[str] = []
        eco_texts = sorted({
            r.request.netlist for r in self.replies
            if r.error is None and r.request.kind == "eco"
        })
        # the cold reference solves are most of the checking time: run
        # them side by side in fresh interpreters, one per CPU
        with ProcessPoolExecutor(
            NPROC, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            cold_outputs = dict(zip(eco_texts, pool.map(_cold_solve, eco_texts)))
        for reply in self.replies:
            if reply.error is not None:
                continue
            result = reply.record["result"]
            kind = reply.request.kind
            tag = f"{kind} {result['job_id'][:12]}"
            if kind in ("cold", "resub"):
                verdict = result["metrics"].get("verify") or {}
                if not verdict.get("equivalent"):
                    errors.append(f"{tag}: service returned no passing verdict")
                original = read_blif(reply.request.netlist)
                retimed = read_blif(result["output"])
                check = check_sequential(original, retimed, cycles=VERIFY_CYCLES)
                if not check.equivalent:
                    errors.append(f"{tag}: output not equivalent: {check}")
            elif kind == "explain":
                self.explain_checked += 1
                payload = (reply.explanation or {}).get("explanation")
                graph = intern_work_graph(
                    read_blif(reply.request.netlist), XC4000E_DELAY
                )
                problems = (
                    ["no explanation payload"] if payload is None
                    else validate_explanation(graph, payload)
                )
                if problems:
                    errors.append(f"{tag}: invalid explanation: {problems[:3]}")
                else:
                    self.explain_valid += 1
            elif kind == "eco":
                if result["output"] != cold_outputs[reply.request.netlist]:
                    errors.append(f"{tag}: ECO output differs from a cold solve")
        return errors

    # -- traced run ----------------------------------------------------

    def traced_pass(self) -> tuple[Pass, Pass, dict[str, float]]:
        """Pass 0 untraced, then again on a fresh, traced service.

        Returns both passes and the per-layer figures of the traced one.
        """
        untraced = self.run_pass(0)
        self.close()
        # before the fork, so the workers inherit the netlist spans
        spans = in_spans(WORKER_NETLIST_SPANS)
        try:
            self._start(traced=True)
        finally:
            spans.restore()
        # after the fork, so the workers keep tracing per job
        tracer = obs.start(trace_id="perfbench")
        clock = LayerClock().install(NETLIST_WRAPS)
        with RetimeClient(self.url) as client:
            before = _scrape(client.metrics_text())
            try:
                traced = self.run_pass(0)
            finally:
                clock.restore()
                obs.stop()
            after = _scrape(client.metrics_text())
        return untraced, traced, self._layers(traced, clock, tracer, before, after)

    def _layers(self, traced: Pass, clock, tracer, before, after) -> dict:
        delta = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after}
        figures: dict[str, float] = defaultdict(float)
        figures.update(clock.seconds)
        counters: dict[str, float] = defaultdict(float, tracer.counters)
        executed = {}
        for reply in self.last_replies:
            result = (reply.record or {}).get("result") or {}
            if result.get("status") == "done" and not result.get("cached"):
                executed[result["job_id"]] = (reply.request.kind, result)
        solve = attributed = 0.0
        plans: dict[str, int] = defaultdict(int)
        for kind, result in executed.values():
            solve += result.get("elapsed", 0.0)
            metrics = result.get("metrics") or {}
            snap = metrics.get("obs") or {}
            for name, seconds in snap.get("self_times", {}).items():
                layer = SPAN_LAYERS.get(name)
                if layer is not None:
                    figures[layer] += seconds
                    attributed += seconds
            figures["timing.sta_calls"] += snap.get("span_counts", {}).get(
                "sta.analyze", 0
            )
            # self times add up to the time the job's whole worker trace
            # covers: resolve, execute, output write and respond
            figures["trace.unattributed_s"] += sum(
                snap.get("self_times", {}).values()
            )
            for name, value in snap.get("counters", {}).items():
                counters[name] += value
            if kind == "eco":
                plans[(metrics.get("eco") or {}).get("plan", "cold")] += 1
        figures["trace.unattributed_s"] -= attributed
        for name in COUNTERS:
            figures[name] = counters.get(name, 0.0)
        figures["mcretime.resolve_attempts"] = resolve_attempts(counters)
        for plan in ("reuse", "resolve", "cold"):
            figures[f"eco.plan.{plan}"] = plans[plan]
        eco_runs = sum(plans.values())
        figures["eco.warm_ratio"] = (
            (plans["reuse"] + plans["resolve"]) / eco_runs if eco_runs else 0.0
        )
        hits = delta.get("repro_cache_hits_total", 0.0)
        misses = delta.get("repro_cache_misses_total", 0.0)
        latency = sum(op.latency for op in traced.ops)
        figures.update({
            "service.queue_wait_s": delta.get("repro_queue_wait_seconds_sum", 0.0),
            "service.solve_s": solve,
            "service.overhead_s": latency - solve,
            "service.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "service.dedup": delta.get("repro_jobs_deduped_total", 0.0),
            "service.shed": delta.get("repro_jobs_shed_total", 0.0),
            "service.worker_busy_ratio": solve / (NPROC * traced.wall),
            "explain.share": figures["explain.build_s"] / solve if solve else 0.0,
        })
        return figures
