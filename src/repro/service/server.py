"""Concurrent analysis server over a content-addressed trace repository.

A small asyncio HTTP/1.1 server (stdlib only) that serves repository
listings, index-backed trace queries and folded reports as canonical
JSON payloads (:mod:`repro.service.payloads`).  The interesting part
is how it stays fast under many concurrent clients:

* **Shared memory maps** — every open trace is held once in a
  refcounted LRU (:class:`~repro.service.tables.SharedTraceCache`);
  all in-flight requests against a digest read the same ``mmap``.
* **Bounded fold workers** — cold folds never run on the event loop:
  they are dispatched to a ``ProcessPoolExecutor`` of ``workers``
  processes (:func:`~repro.service.work.fold_payload_job`), so fold
  CPU is capped and the loop keeps answering cheap queries.  A worker
  that dies mid-fold breaks the pool; the server replaces it and
  retries that fold once.
* **Request coalescing** — concurrent requests for the same
  ``(digest, fold parameters)`` await one shared future; the fold is
  computed once and fanned out.
* **Content-addressed caching** — the worker pool shares the on-disk
  :class:`~repro.folding.cache.FoldCache`; the server additionally
  checks it in-loop so a warm fold is answered without touching the
  pool, keeps an LRU of serialized response bodies, and stamps every
  payload response with a strong ``ETag`` so revalidating clients get
  ``304 Not Modified`` with no body at all.

Routes (all ``GET``)::

    /v1/healthz
    /v1/stats
    /v1/traces
    /v1/traces/{digest}
    /v1/traces/{digest}/window?t0=..&t1=..
    /v1/traces/{digest}/regions
    /v1/traces/{digest}/regions/{name}
    /v1/traces/{digest}/fold?direction=counters|address|lines
        [&grid=N][&bandwidth=F][&reps=N][&seed=N][&stream=1][&points=N]

``{digest}`` accepts any unambiguous prefix (>= 4 hex chars).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from urllib.parse import parse_qs, unquote, urlsplit

from repro.folding.cache import FOLD_CACHE_VERSION, FoldCache, fold_key_params
from repro.repo import RepoError, TraceRepo
from repro.service.payloads import (
    PAYLOAD_VERSION,
    address_payload,
    canonical_bytes,
    counters_payload,
    lines_payload,
    seal,
)
from repro.service.tables import SharedTraceCache
from repro.service.work import FOLD_DIRECTIONS, fold_payload_job

__all__ = ["AnalysisServer", "HttpError"]

_JSON = "application/json"


class HttpError(Exception):
    """A request error with an HTTP status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _ResponseCache:
    """Byte-bounded LRU of serialized response bodies, keyed by ETag."""

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = max_bytes
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self._bytes = 0

    def get(self, etag: str) -> bytes | None:
        body = self._entries.get(etag)
        if body is not None:
            self._entries.move_to_end(etag)
        return body

    def put(self, etag: str, body: bytes) -> None:
        if etag in self._entries:
            self._bytes -= len(self._entries.pop(etag))
        self._entries[etag] = body
        self._bytes += len(body)
        while self._bytes > self.max_bytes and len(self._entries) > 1:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= len(evicted)

    def stats(self) -> dict:
        return {"n_entries": len(self._entries), "bytes": self._bytes}


class AnalysisServer:
    """The analysis service; see module docstring for the route map."""

    def __init__(
        self,
        repo: TraceRepo,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        cache_dir: str | Path | None = None,
        trace_cache_capacity: int = 8,
        response_cache_bytes: int = 64 * 1024 * 1024,
        max_requests: int | None = None,
    ) -> None:
        self.repo = repo
        self.host = host
        self.port = port
        self.workers = max(1, int(workers))
        self.cache_dir = Path(cache_dir) if cache_dir else repo.root / "foldcache"
        self.max_requests = max_requests
        self.tables = SharedTraceCache(capacity=trace_cache_capacity)
        self.responses = _ResponseCache(response_cache_bytes)
        self.fold_cache = FoldCache(self.cache_dir)
        self._pool: ProcessPoolExecutor | None = None
        self._server: asyncio.AbstractServer | None = None
        self._stopped: asyncio.Event | None = None
        self._inflight: dict[str, asyncio.Future] = {}
        self.counters = {
            "requests": 0,
            "fold_requests": 0,
            "folds_cold": 0,
            "folds_warm_cache": 0,
            "folds_coalesced": 0,
            "response_cache_hits": 0,
            "not_modified": 0,
            "errors": 0,
        }

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._pool = ProcessPoolExecutor(max_workers=self.workers)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self.tables.close()
        if self._stopped is not None:
            self._stopped.set()

    async def serve_until_stopped(self) -> None:
        await self.start()
        assert self._stopped is not None
        try:
            await self._stopped.wait()
        finally:
            await self.stop()

    def run(self) -> None:
        """Blocking convenience entry point (used by the CLI)."""
        asyncio.run(self.serve_until_stopped())

    def request_stop(self) -> None:
        """Ask a running server to stop — safe from any thread."""
        loop = getattr(self, "_loop", None)
        if loop is not None and self._stopped is not None:
            loop.call_soon_threadsafe(self._stopped.set)

    def _count_request(self) -> None:
        self.counters["requests"] += 1
        if (
            self.max_requests is not None
            and self.counters["requests"] >= self.max_requests
            and self._stopped is not None
        ):
            self._stopped.set()

    # -- HTTP plumbing -------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
                    return
                request_line, *header_lines = head.decode(
                    "latin-1"
                ).split("\r\n")
                parts = request_line.split()
                if len(parts) != 3:
                    return
                method, target, _version = parts
                headers = {}
                for line in header_lines:
                    if ":" in line:
                        k, v = line.split(":", 1)
                        headers[k.strip().lower()] = v.strip()
                self._count_request()
                keep_alive = headers.get("connection", "").lower() != "close"
                status, body, extra = await self._dispatch(method, target, headers)
                await self._write_response(writer, status, body, extra, keep_alive)
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            return  # server shutting down mid-connection
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                asyncio.CancelledError,  # shutdown cancelled the handler
                ConnectionResetError,
                BrokenPipeError,
                OSError,
            ):
                pass

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        extra_headers: dict,
        keep_alive: bool,
    ) -> None:
        reason = {
            200: "OK",
            304: "Not Modified",
            400: "Bad Request",
            404: "Not Found",
            405: "Method Not Allowed",
            500: "Internal Server Error",
        }.get(status, "OK")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"content-type: {_JSON}",
            f"content-length: {len(body)}",
            f"connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for k, v in extra_headers.items():
            lines.append(f"{k}: {v}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()

    async def _dispatch(
        self, method: str, target: str, headers: dict
    ) -> tuple[int, bytes, dict]:
        try:
            if method != "GET":
                raise HttpError(405, f"method {method} not supported")
            split = urlsplit(target)
            segments = [unquote(s) for s in split.path.split("/") if s]
            query = {
                k: v[-1] for k, v in parse_qs(split.query).items()
            }
            return await self._route(segments, query, headers)
        except HttpError as exc:
            self.counters["errors"] += 1
            body = canonical_bytes({"error": str(exc), "status": exc.status})
            return exc.status, body, {}
        except RepoError as exc:
            self.counters["errors"] += 1
            body = canonical_bytes({"error": str(exc), "status": 404})
            return 404, body, {}
        except Exception as exc:  # noqa: BLE001 - boundary: report, don't die
            self.counters["errors"] += 1
            body = canonical_bytes(
                {"error": f"{type(exc).__name__}: {exc}", "status": 500}
            )
            return 500, body, {}

    async def _route(
        self, segments: list[str], query: dict, headers: dict
    ) -> tuple[int, bytes, dict]:
        if not segments or segments[0] != "v1":
            raise HttpError(404, "unknown path (expected /v1/...)")
        rest = segments[1:]
        if rest == ["healthz"]:
            return 200, canonical_bytes({"ok": True}), {}
        if rest == ["stats"]:
            return 200, canonical_bytes(self._stats_payload()), {}
        if not rest or rest[0] != "traces":
            raise HttpError(404, f"unknown path /{'/'.join(segments)}")
        if rest == ["traces"]:
            return self._list_traces()
        digest = self.repo.resolve(rest[1])
        tail = rest[2:]
        if not tail:
            return self._trace_meta(digest)
        if tail == ["window"]:
            return self._window(digest, query)
        if tail == ["regions"]:
            return self._regions(digest)
        if len(tail) == 2 and tail[0] == "regions":
            return self._region_detail(digest, tail[1])
        if tail == ["fold"]:
            return await self._fold(digest, query, headers)
        raise HttpError(404, f"unknown trace endpoint /{'/'.join(tail)}")

    # -- cheap (in-loop) endpoints -------------------------------------------
    def _stats_payload(self) -> dict:
        cache_stats = self.fold_cache.stats()
        return {
            "version": PAYLOAD_VERSION,
            "repo": self.repo.stats(),
            "tables": self.tables.stats(),
            "responses": self.responses.stats(),
            "fold_cache": {
                "directory": str(self.cache_dir),
                "n_entries": cache_stats.n_entries,
                "total_bytes": cache_stats.total_bytes,
            },
            "workers": self.workers,
            "counters": dict(self.counters),
            "inflight": len(self._inflight),
        }

    def _list_traces(self) -> tuple[int, bytes, dict]:
        entries = self.repo.list()
        payload = seal(
            {
                "version": PAYLOAD_VERSION,
                "n_traces": len(entries),
                "traces": [
                    {"digest": e.digest, **e.meta} for e in entries
                ],
            }
        )
        return 200, canonical_bytes(payload), {}

    def _trace_meta(self, digest: str) -> tuple[int, bytes, dict]:
        entry = self.repo.entry(digest)
        payload = seal(
            {
                "version": PAYLOAD_VERSION,
                "digest": digest,
                "meta": entry.meta,
            }
        )
        return 200, canonical_bytes(payload), {}

    def _query_etag(self, digest: str, what: str, params: dict) -> str:
        blob = json.dumps(
            {
                "payload_version": PAYLOAD_VERSION,
                "cache_version": FOLD_CACHE_VERSION,
                "trace": digest,
                "what": what,
                "params": params,
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode()
        return hashlib.sha256(blob).hexdigest()

    def _window(self, digest: str, query: dict) -> tuple[int, bytes, dict]:
        try:
            t0 = float(query["t0"])
            t1 = float(query["t1"])
        except (KeyError, ValueError) as exc:
            raise HttpError(400, "window needs numeric t0 and t1") from exc
        with self.tables.lease(digest, self.repo.path(digest)) as lease:
            # Column *views* over the shared map — the O(n)-copy
            # SampleIndex.window() would materialize the whole slice
            # on the event loop for every request.
            sl = lease.index.samples.time_slice(t0, t1)
            n = int(sl.stop - sl.start)
            table = lease.trace.sample_table()
            op = table.column("op")[sl]
            latency = table.column("latency")[sl]
            payload = seal(
                {
                    "version": PAYLOAD_VERSION,
                    "digest": digest,
                    "t0_ns": t0,
                    "t1_ns": t1,
                    "n_samples": n,
                    "n_loads": int((op == 0).sum()) if n else 0,
                    "n_stores": int((op == 1).sum()) if n else 0,
                    "mean_latency": float(latency.mean()) if n else 0.0,
                    "max_latency": float(latency.max()) if n else 0.0,
                }
            )
        return 200, canonical_bytes(payload), {}

    def _regions(self, digest: str) -> tuple[int, bytes, dict]:
        with self.tables.lease(digest, self.repo.path(digest)) as lease:
            ev = lease.index.events
            payload = seal(
                {
                    "version": PAYLOAD_VERSION,
                    "digest": digest,
                    "regions": [
                        {
                            "name": name,
                            "n_intervals": len(ev.region_intervals(name)),
                        }
                        for name in ev.region_names
                    ],
                    "n_iterations": len(ev.iteration_times()),
                }
            )
        return 200, canonical_bytes(payload), {}

    def _region_detail(self, digest: str, name: str) -> tuple[int, bytes, dict]:
        with self.tables.lease(digest, self.repo.path(digest)) as lease:
            ev = lease.index.events
            if name not in ev.region_names:
                raise HttpError(404, f"no region {name!r} in trace {digest[:12]}")
            samples = lease.index.samples
            intervals = []
            for start, end in ev.region_intervals(name):
                sl = samples.time_slice(start, end)
                intervals.append(
                    {
                        "t0_ns": float(start),
                        "t1_ns": float(end),
                        "n_samples": int(sl.stop - sl.start),
                    }
                )
            payload = seal(
                {
                    "version": PAYLOAD_VERSION,
                    "digest": digest,
                    "region": name,
                    "intervals": intervals,
                }
            )
        return 200, canonical_bytes(payload), {}

    # -- folds (workers + caches + coalescing) -------------------------------
    @staticmethod
    def _fold_params(query: dict) -> tuple[str, dict]:
        direction = query.get("direction", "counters")
        if direction not in FOLD_DIRECTIONS:
            raise HttpError(
                400,
                f"direction must be one of {FOLD_DIRECTIONS}, got {direction!r}",
            )
        try:
            params = {
                "grid_points": int(query.get("grid", 201)),
                "bandwidth": float(query.get("bandwidth", 0.015)),
                "stream": query.get("stream", "0") not in ("0", "", "false"),
                "rep_budget": int(query["reps"]) if query.get("reps") else None,
                "rep_seed": int(query.get("seed", 0)),
                "max_points": int(query.get("points", 0)),
            }
        except ValueError as exc:
            raise HttpError(400, f"bad fold parameter: {exc}") from exc
        if params["rep_budget"] and direction != "counters":
            raise HttpError(400, "reps= only applies to direction=counters")
        if params["stream"] and direction != "counters":
            raise HttpError(400, "stream=1 only applies to direction=counters")
        return direction, params

    async def _fold(
        self, digest: str, query: dict, headers: dict
    ) -> tuple[int, bytes, dict]:
        self.counters["fold_requests"] += 1
        direction, params = self._fold_params(query)
        etag = self._query_etag(digest, f"fold:{direction}", params)
        etag_header = {"etag": f'"{etag}"'}

        if_none_match = headers.get("if-none-match", "")
        if etag in if_none_match:
            self.counters["not_modified"] += 1
            return 304, b"", etag_header

        cached = self.responses.get(etag)
        if cached is not None:
            self.counters["response_cache_hits"] += 1
            return 200, cached, etag_header

        inflight = self._inflight.get(etag)
        if inflight is not None:
            self.counters["folds_coalesced"] += 1
            body = await asyncio.shield(inflight)
            return 200, body, etag_header

        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        self._inflight[etag] = fut
        try:
            body = await self._compute_fold(digest, direction, params)
            fut.set_result(body)
        except BaseException as exc:
            if not fut.done():
                fut.set_exception(exc)
                fut.exception()  # mark retrieved for the no-waiter case
            raise
        finally:
            self._inflight.pop(etag, None)
        self.responses.put(etag, body)
        return 200, body, etag_header

    async def _compute_fold(
        self, digest: str, direction: str, params: dict
    ) -> bytes:
        warm = self._warm_fold_payload(digest, direction, params)
        if warm is not None:
            self.counters["folds_warm_cache"] += 1
            return canonical_bytes(warm)
        self.counters["folds_cold"] += 1
        loop = asyncio.get_running_loop()
        job = (
            fold_payload_job,
            str(self.repo.path(digest)),
            direction,
            params,
            str(self.cache_dir),
        )
        pool = self._pool
        try:
            payload = await loop.run_in_executor(pool, *job)
        except BrokenProcessPool:
            # A worker died (OOM kill, crash) and took the pool down
            # with it: replace the pool (once, however many folds saw it
            # break) and retry this fold on the new one.
            if self._pool is pool:
                pool.shutdown(wait=False, cancel_futures=True)
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            payload = await loop.run_in_executor(self._pool, *job)
        return canonical_bytes(payload)

    def _warm_fold_payload(
        self, digest: str, direction: str, params: dict
    ) -> dict | None:
        """Build the payload from a FoldCache hit, or ``None`` when cold.

        The disk cache is shared with the worker pool, so any fold any
        worker (or a previous server, or the batch CLI) computed for
        this content address serves here without touching the pool.
        """
        from repro.folding.report import FoldedReport

        key = self.fold_cache.key_digest(
            digest,
            **fold_key_params(
                params["grid_points"],
                params["bandwidth"],
                rep_budget=params["rep_budget"] or None,
                rep_seed=params["rep_seed"],
            ),
        )
        hit = self.fold_cache.get(key)
        if hit is None:
            return None
        if direction != "counters" and not isinstance(hit, FoldedReport):
            # Only the resident report reproduces the exact address and
            # line payloads (streamed entries carry reservoir subsets);
            # anything else must re-fold to keep payloads digest-stable.
            return None
        try:
            if direction == "counters":
                return counters_payload(hit)
            if direction == "address":
                return address_payload(hit, max_points=params["max_points"])
            return lines_payload(hit, max_points=params["max_points"])
        except (AttributeError, TypeError, IndexError):
            # The entry under this key cannot serve this direction
            # (e.g. a counters-only streamed fold asked for addresses):
            # fall through to a real fold.
            return None
