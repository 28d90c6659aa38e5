"""The ``repro-serve``/``repro-cluster`` client subcommands, end to end.

``submit``, ``status --json`` and ``drain`` run against a real
:class:`ExperimentService` (and, for ``repro-cluster``, a
:class:`ClusterCoordinator` in front of it) on a Unix socket. The CLIs
call ``asyncio.run``, so the servers run on their own event loop in a
background thread.
"""

import asyncio
import json
import os
import threading

from repro.cluster import ClusterConfig, ClusterCoordinator
from repro.cluster.cli import main as cluster_main
from repro.serve import ExperimentService, ServiceConfig
from repro.serve.cli import main as serve_main

#: One small, fast cell (lusearch, 2 iterations).
JOB_ARGS = ["--gc", "Serial", "--heap", "1g", "--young", "256m", "-n", "2"]


class OnOwnLoop:
    """Servers built by *factories* on a private event loop in a daemon
    thread, started in order (each listening before the next is built);
    ``codes`` holds their ``run()`` exit codes once all have drained."""

    def __init__(self, *factories):
        self.factories = factories
        self.servers = []
        self.loop = asyncio.new_event_loop()
        self.ready = threading.Event()
        self.codes = None
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            tasks = []
            for factory in self.factories:
                server = factory()
                self.servers.append(server)
                tasks.append(asyncio.ensure_future(
                    server.run(handle_signals=False)))
                while not os.path.exists(server.config.socket_path):
                    await asyncio.sleep(0.01)
            self.ready.set()
            return await asyncio.gather(*tasks)

        self.codes = self.loop.run_until_complete(main())

    def __enter__(self):
        self.thread.start()
        assert self.ready.wait(30), "servers did not start"
        return self

    def __exit__(self, *exc):
        if self.thread.is_alive():
            for server in self.servers:
                asyncio.run_coroutine_threadsafe(server.drain(), self.loop)
        self.thread.join(60)
        assert not self.thread.is_alive(), "servers did not drain"
        self.loop.close()


def service(tmp_path, name="serve"):
    return lambda: ExperimentService(ServiceConfig(
        store=str(tmp_path / f"{name}-store"),
        socket_path=str(tmp_path / f"{name}.sock"), workers=1))


class TestServeClient:
    def test_submit_status_drain(self, tmp_path, capsys):
        sock = ["--socket", str(tmp_path / "serve.sock")]
        out = tmp_path / "run.json"
        with OnOwnLoop(service(tmp_path)) as servers:
            assert serve_main(["submit", "lusearch", *sock, *JOB_ARGS,
                               "--out", str(out)]) == 0
            first = capsys.readouterr().out
            assert "simulated in" in first
            assert f"run written to {out}" in first
            assert json.loads(out.read_text())["crashed"] is False

            assert serve_main(["submit", "lusearch", *sock, *JOB_ARGS]) == 0
            assert "[cache]" in capsys.readouterr().out

            assert serve_main(["status", *sock, "--json"]) == 0
            stats = json.loads(capsys.readouterr().out)
            assert stats["cache"]["hits"] == 1
            assert stats["cache"]["misses"] == 1
            assert stats["store"]["ok"] == 1

            assert serve_main(["drain", *sock]) == 0
            assert "drained: 1 simulated, 1 cache hits, 0 quarantined" in \
                capsys.readouterr().out
        assert servers.codes == [0]

    def test_unreachable_service_is_a_clean_error(self, tmp_path, capsys):
        rc = serve_main(["status", "--socket", str(tmp_path / "none.sock")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-serve: error: cannot reach the service")

    def test_missing_connection_flags(self, capsys):
        assert serve_main(["drain"]) == 2
        assert "need --socket" in capsys.readouterr().err


class TestClusterClient:
    def test_submit_status_drain(self, tmp_path, capsys):
        node = f"unix:{tmp_path / 'w0.sock'}"
        coordinator = lambda: ClusterCoordinator(ClusterConfig(  # noqa: E731
            nodes=(node,), socket_path=str(tmp_path / "coord.sock")))
        sock = ["--socket", str(tmp_path / "coord.sock")]
        grid = ["--benchmarks", "lusearch", "--gcs", "Serial",
                "--youngs", "256m", "--seeds", "0", "1", "--iterations", "2"]
        with OnOwnLoop(service(tmp_path, "w0"), coordinator) as servers:
            assert cluster_main(["submit", *sock, *grid]) == 0
            assert "cluster: simulated 2, cached 0/2, failed 0" in \
                capsys.readouterr().out
            assert cluster_main(["submit", *sock, *grid]) == 0
            assert "cluster: simulated 0, cached 2/2, failed 0" in \
                capsys.readouterr().out

            assert cluster_main(["status", *sock, "--json"]) == 0
            stats = json.loads(capsys.readouterr().out)
            assert stats["cluster"]["live"] == [node]
            assert stats["totals"]["cache"]["hits"] == 2

            assert cluster_main(["drain", *sock]) == 0
            assert "cluster drained: 2 simulated, 2 cache hits, 0 failed" in \
                capsys.readouterr().out
        assert servers.codes == [0, 0]
