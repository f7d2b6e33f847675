"""The daemon's HTTP façade: routing, SSE, signals, lifecycle.

Routes (all JSON, all ``Connection: close``)::

    GET  /v1/healthz                  liveness + drain flag
    GET  /v1/stats                    queue/flight/shed/dedup counters,
                                      dispatch_wait_ms percentiles
    POST /v1/campaigns                submit {"cells": [...], "tenant", "priority"}
    GET  /v1/campaigns/{id}           full campaign state (per-cell taxonomy)
    POST /v1/campaigns/{id}/cancel    cancel queued/running cells
    GET  /v1/campaigns/{id}/events    SSE progress stream
    GET  /v1/results/{key}            raw stored result bytes

Submission answers ``202`` with the campaign summary, ``400`` with a
per-cell problem list for invalid configs, ``429 + Retry-After`` when
admission sheds the load, and ``503`` while draining. SIGTERM/SIGINT
trigger the graceful drain: the listener closes (no new admissions),
executing cells finish within the drain budget, every manifest that
changed is flushed, and the process exits — a subsequent start replays the
admission journal and the manifests (see
:meth:`~repro.serve.service.CampaignService.recover`).
"""

from __future__ import annotations

import asyncio
import logging
import os
import signal
from typing import Optional, Tuple

from repro.serve.http import (
    HttpError,
    Request,
    Response,
    SSEStream,
    read_request,
    send_response,
)
from repro.serve.service import Campaign, CampaignService

log = logging.getLogger("repro.serve")


class ServeApp:
    """Binds a :class:`CampaignService` to an asyncio TCP listener."""

    def __init__(
        self,
        service: CampaignService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        ready_file: Optional[str] = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        #: When set, "host port" is written here once the listener is
        #: up — how subprocess tests discover an ephemeral port.
        self.ready_file = ready_file
        self.bound_port: Optional[int] = None
        #: The running loop, exposed so embedders (tests) can inject
        #: thread-safe shutdown requests.
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown = asyncio.Event()

    # -- lifecycle -----------------------------------------------------

    async def run(self) -> None:
        loop = asyncio.get_running_loop()
        self.loop = loop
        recovered = self.service.start(loop)
        server = await asyncio.start_server(self._handle, self.host, self.port)
        self.bound_port = server.sockets[0].getsockname()[1]
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self._shutdown.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-POSIX loop: Ctrl-C still lands as KeyboardInterrupt
        log.info(
            "repro serve listening on %s:%d (workers=%d, store=%s); "
            "recovered %s",
            self.host, self.bound_port, self.service.workers,
            self.service.store.directory, recovered,
        )
        if self.ready_file:
            # File I/O stays off the loop thread (CON001): clients may
            # already be connecting by the time the ready file lands.
            await loop.run_in_executor(None, self._write_ready_file)

        async with server:
            await self._shutdown.wait()
            # Stop admitting first (new connections refused), then let
            # the service finish/checkpoint what is already executing.
            server.close()
            await server.wait_closed()
        await self.service.drain(loop)
        log.info("repro serve: drain complete, exiting")

    def _write_ready_file(self) -> None:
        """Atomically publish "host port" for subprocess discovery."""
        assert self.ready_file is not None
        tmp = self.ready_file + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(f"{self.host} {self.bound_port}\n")
        os.replace(tmp, self.ready_file)

    def request_shutdown(self) -> None:
        self._shutdown.set()

    # -- per-connection handling ---------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                await self._dispatch(request, writer)
            except HttpError as exc:
                await send_response(writer, Response.json(
                    exc.body(), status=exc.status, headers=exc.headers,
                ))
        except (ConnectionError, asyncio.IncompleteReadError):
            return  # the client went away mid-exchange; nothing to answer
        except Exception:
            log.exception("unhandled error serving a request")
            try:
                await send_response(
                    writer, Response.json({"error": "internal error"}, status=500)
                )
            except (ConnectionError, OSError):
                return
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                return

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        parts: Tuple[str, ...] = tuple(
            p for p in request.path.split("/") if p
        )
        method = request.method
        response: Optional[Response] = None

        if parts == ("v1", "healthz"):
            self._require(method, "GET", parts)
            response = Response.json({
                "ok": True, "draining": self.service.draining,
            })
        elif parts == ("v1", "stats"):
            self._require(method, "GET", parts)
            response = Response.json(self.service.stats())
        elif parts == ("v1", "campaigns"):
            self._require(method, "POST", parts)
            campaign = self.service.submit(request.json())
            log.info(
                "submitted campaign %s: tenant=%s cells=%d",
                campaign.id, campaign.tenant, len(campaign.cells),
            )
            response = Response.json(campaign.summary(), status=202)
        elif len(parts) == 3 and parts[:2] == ("v1", "campaigns"):
            self._require(method, "GET", parts)
            campaign = self.service.get(parts[2])
            response = Response.json(campaign.summary(include_cells=True))
        elif len(parts) == 4 and parts[:2] == ("v1", "campaigns") \
                and parts[3] == "cancel":
            self._require(method, "POST", parts)
            campaign = self.service.cancel(parts[2])
            response = Response.json(campaign.summary())
        elif len(parts) == 4 and parts[:2] == ("v1", "campaigns") \
                and parts[3] == "events":
            self._require(method, "GET", parts)
            campaign = self.service.get(parts[2])
            await self._stream_events(campaign, writer)
            return
        elif len(parts) == 3 and parts[:2] == ("v1", "results"):
            self._require(method, "GET", parts)
            body = self.service.result_bytes(parts[2])
            response = Response(
                status=200,
                headers={"Content-Type": "application/json"},
                body=body,
            )
        else:
            raise HttpError(404, f"no route {method} /{'/'.join(parts)}")

        await send_response(writer, response)

    @staticmethod
    def _require(method: str, expected: str, parts: Tuple[str, ...]) -> None:
        if method != expected:
            raise HttpError(
                405,
                f"{method} not allowed on /{'/'.join(parts)} (use {expected})",
                headers={"Allow": expected},
            )

    async def _stream_events(
        self, campaign: Campaign, writer: asyncio.StreamWriter
    ) -> None:
        """SSE: a snapshot, then deltas until the campaign finishes."""
        stream = SSEStream(writer)
        await stream.start()
        await stream.event(
            "snapshot", campaign.summary(include_cells=True)
        )
        if campaign.done:
            return
        queue = self.service.subscribe(campaign)
        try:
            while True:
                try:
                    name, payload = await asyncio.wait_for(
                        queue.get(), timeout=10.0
                    )
                except asyncio.TimeoutError:
                    await stream.comment()
                    continue
                await stream.event(name, payload)
                if name == "drain":
                    return
                if name == "campaign" and payload.get("done"):
                    return
        finally:
            self.service.unsubscribe(campaign, queue)


def run_app(service: CampaignService, **kwargs) -> None:
    """Blocking entry point: run the daemon until drain completes."""
    app = ServeApp(service, **kwargs)
    try:
        asyncio.run(app.run())
    except KeyboardInterrupt:  # pragma: no cover - non-POSIX fallback
        pass
