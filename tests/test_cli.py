"""Tests for the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PointSet, save_csv
from repro.cli import build_parser, main


@pytest.fixture
def csv_path(tmp_path, rng):
    xy = rng.uniform((0, 0), (1000, 800), (200, 2))
    path = tmp_path / "pts.csv"
    save_csv(PointSet(xy), path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_size_parsing(self):
        args = build_parser().parse_args(["compute", "x.csv", "--size", "320x240"])
        assert args.size == (320, 240)

    @pytest.mark.parametrize("bad", ["320", "320x", "ax240", "0x240"])
    def test_bad_size_rejected(self, bad):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compute", "x.csv", "--size", bad])

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compute", "x.csv", "--method", "fft"])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0


class TestCompute:
    def test_csv_to_ppm(self, csv_path, tmp_path, capsys):
        out = str(tmp_path / "map.ppm")
        code = main(["compute", csv_path, "-o", out, "--size", "32x24"])
        assert code == 0
        data = (tmp_path / "map.ppm").read_bytes()
        assert data.startswith(b"P6\n32 24\n255\n")
        assert "wrote" in capsys.readouterr().out

    def test_builtin_dataset(self, tmp_path, capsys):
        out = str(tmp_path / "map.ppm")
        code = main([
            "compute", "--dataset", "seattle", "--scale", "0.001",
            "-o", out, "--size", "16x12",
        ])
        assert code == 0
        assert (tmp_path / "map.ppm").exists()

    def test_preview_flag(self, csv_path, tmp_path, capsys):
        out = str(tmp_path / "map.ppm")
        code = main(["compute", csv_path, "-o", out, "--size", "16x12", "--preview"])
        assert code == 0
        # the ASCII preview adds many lines after the summary
        assert len(capsys.readouterr().out.split("\n")) > 5

    def test_explicit_bandwidth_and_method(self, csv_path, tmp_path, capsys):
        out = str(tmp_path / "map.ppm")
        code = main([
            "compute", csv_path, "-o", out, "--size", "16x12",
            "--bandwidth", "120", "--method", "quad", "--kernel", "quartic",
        ])
        assert code == 0
        assert "method=quad" in capsys.readouterr().out

    def test_both_sources_is_error(self, csv_path, capsys):
        code = main(["compute", csv_path, "--dataset", "seattle"])
        assert code == 2
        assert "either" in capsys.readouterr().err

    def test_neither_source_is_error(self, capsys):
        code = main(["compute"])
        assert code == 2

    def test_bad_bandwidth(self, csv_path, capsys):
        code = main(["compute", csv_path, "--bandwidth", "wide"])
        assert code == 2
        assert "bad bandwidth" in capsys.readouterr().err

    def test_empty_csv(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        save_csv(PointSet(np.empty((0, 2))), path)
        code = main(["compute", str(path)])
        assert code == 2
        assert "empty" in capsys.readouterr().err


class TestInfoCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "seattle" in out and "4,333,098" in out

    def test_methods(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        assert "slam_bucket_rao" in out
        assert "O(min(X,Y)(max(X,Y) + n))" in out


class TestGenerate:
    def test_generate_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "city.csv")
        code = main(["generate", "new_york", "--scale", "0.0005", "-o", out])
        assert code == 0
        from repro import load_csv

        back = load_csv(out)
        assert len(back) == round(1_499_928 * 0.0005)
        assert back.t is not None and back.category is not None

    def test_generate_seed(self, tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        main(["generate", "seattle", "--scale", "0.0002", "--seed", "7", "-o", a])
        main(["generate", "seattle", "--scale", "0.0002", "--seed", "8", "-o", b])
        from repro import load_csv

        assert not np.array_equal(load_csv(a).xy, load_csv(b).xy)


class TestHotspotsCommand:
    def test_builtin_dataset(self, capsys):
        code = main([
            "hotspots", "--dataset", "seattle", "--scale", "0.002",
            "--size", "64x48", "--top", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "hotspot" in out
        assert "peak density" in out

    def test_csv_input(self, csv_path, capsys):
        code = main(["hotspots", csv_path, "--size", "32x24",
                     "--bandwidth", "100"])
        assert code == 0

    def test_source_validation(self, capsys):
        assert main(["hotspots"]) == 2


class TestStkdvCommand:
    def test_renders_frames(self, tmp_path, capsys):
        prefix = str(tmp_path / "frames")
        code = main([
            "stkdv", "--dataset", "seattle", "--scale", "0.001",
            "--frames", "3", "--size", "16x12", "-o", prefix,
        ])
        assert code == 0
        assert (tmp_path / "frames_0000.ppm").exists()
        assert (tmp_path / "frames_0002.ppm").exists()

    def test_requires_timestamps(self, csv_path, capsys):
        # the plain fixture CSV has no t column
        code = main(["stkdv", csv_path])
        assert code == 2
        assert "timestamps" in capsys.readouterr().err


class TestNkdvCommand:
    def test_renders_ppm(self, tmp_path, capsys):
        out = str(tmp_path / "net.ppm")
        code = main([
            "nkdv", "--dataset", "seattle", "--scale", "0.0005",
            "--grid", "6x5", "--lixel", "100", "--bandwidth", "800",
            "-o", out,
        ])
        assert code == 0
        assert (tmp_path / "net.ppm").read_bytes().startswith(b"P6\n")
        assert "lixels" in capsys.readouterr().out

    def test_csv_input(self, csv_path, tmp_path, capsys):
        out = str(tmp_path / "net.ppm")
        code = main(["nkdv", csv_path, "--grid", "4x4", "--lixel", "50",
                     "--bandwidth", "200", "-o", out])
        assert code == 0


class TestServeCommand:
    def test_parser_defaults(self):
        ns = build_parser().parse_args(["serve", "--dataset", "seattle"])
        assert ns.port == 8711
        assert ns.workers == 2
        assert ns.bandwidth == "scott"
        assert ns.max_zoom == 8
        assert not ns.allow_shutdown

    def test_bad_bandwidth_rejected(self, csv_path, capsys):
        code = main(["serve", csv_path, "--bandwidth", "nope"])
        assert code == 2
        assert "bandwidth" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            pytest.param([], id="default-pool"),
            pytest.param(["--render-delay", "1"], id="render-delay"),
        ],
    )
    def test_bad_service_config_rejected(self, csv_path, capsys, extra):
        code = main(["serve", csv_path, "--workers", "0", *extra])
        assert code == 2
        assert "error: workers must be >= 1" in capsys.readouterr().err

    def test_rejected_config_closes_coordinator(self, csv_path, monkeypatch):
        """A service the arguments cannot build must not leak the
        coordinator already connected to --dist-workers."""
        from repro.dist import Coordinator
        from repro.dist.worker import WorkerServer

        alive_at_close = []
        real_close = Coordinator.close

        def spy(coord):
            alive_at_close.append(coord.num_alive())
            real_close(coord)

        monkeypatch.setattr(Coordinator, "close", spy)
        worker = WorkerServer(host="127.0.0.1", port=0)
        thread = worker.start_in_thread()
        try:
            code = main([
                "serve", csv_path, "--method", "scan",
                "--dist-workers", f"127.0.0.1:{worker.port}",
            ])
        finally:
            worker.stop()
            thread.join(timeout=5.0)
        assert code == 2  # a coordinator needs a SLAM method
        assert alive_at_close == [1]

    def test_end_to_end_over_http(self, csv_path):
        """`repro serve` binds, serves tiles and metrics, and exits cleanly
        on POST /shutdown."""
        import json
        import socket
        import threading
        import time
        import urllib.request

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        url = f"http://127.0.0.1:{port}"
        holder = {}
        thread = threading.Thread(
            target=lambda: holder.setdefault("code", main([
                "serve", csv_path, "--port", str(port), "--tile-size", "8",
                "--max-zoom", "1", "--bandwidth", "50", "--workers", "1",
                "--allow-shutdown",
            ])),
        )
        thread.start()
        try:
            deadline = time.monotonic() + 20.0
            health = None
            while time.monotonic() < deadline:
                try:
                    with urllib.request.urlopen(url + "/healthz", timeout=2.0) as r:
                        health = json.load(r)
                    break
                except OSError:
                    time.sleep(0.1)
            assert health is not None and health["status"] == "ok"
            with urllib.request.urlopen(url + "/tiles/1/0/0", timeout=30.0) as r:
                assert r.status == 200
            request = urllib.request.Request(
                url + "/shutdown", data=b"{}", method="POST"
            )
            with urllib.request.urlopen(request, timeout=10.0) as r:
                assert r.status == 200
        finally:
            thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert holder["code"] == 0
