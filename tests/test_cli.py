"""Tests for the command-line tools."""

import pytest

from repro.cli import (
    main,
    main_fold,
    main_report,
    main_run,
    main_trace,
    main_validate,
)

from tests.conftest import v1_fixture


@pytest.fixture()
def trace_file(tmp_path):
    path = tmp_path / "t.bsctrace"
    rc = main_run(
        ["--workload", "hpcg", "--nx", "16", "--nlevels", "2",
         "--iterations", "3", "-o", str(path)]
    )
    assert rc == 0
    return path


class TestRun:
    def test_writes_trace(self, trace_file, capsys):
        assert trace_file.exists()

    def test_stream_workload(self, tmp_path):
        path = tmp_path / "s.bsctrace"
        assert main_run(["--workload", "stream", "--nx", "32",
                         "--iterations", "2", "-o", str(path)]) == 0
        assert path.exists()

    def test_gups_workload(self, tmp_path):
        path = tmp_path / "g.bsctrace"
        assert main_run(["--workload", "gups", "--iterations", "2",
                         "-o", str(path)]) == 0

    def test_precise_engine_small(self, tmp_path):
        path = tmp_path / "p.bsctrace"
        assert main_run(["--workload", "stream", "--nx", "16",
                         "--iterations", "1", "--engine", "precise",
                         "-o", str(path)]) == 0

    def test_vectorized_engine_small(self, tmp_path):
        path = tmp_path / "v.bsctrace"
        assert main_run(["--workload", "stream", "--nx", "16",
                         "--iterations", "1", "--engine", "vectorized",
                         "-o", str(path)]) == 0
        assert path.exists()


class TestRanks:
    def test_ranks_run_writes_interior_trace(self, tmp_path, capsys):
        path = tmp_path / "cluster.bsctrace"
        assert main_run(["--workload", "stream", "--nx", "8",
                         "--iterations", "2", "--ranks", "3",
                         "--max-workers", "2", "-o", str(path)]) == 0
        assert path.exists()
        out = capsys.readouterr().out
        assert "3-rank stream stack" in out
        assert "interior rank 1 of 3" in out
        assert "samples: min" in out

    def test_keep_spill_preserves_rank_traces(self, tmp_path, capsys):
        path = tmp_path / "cluster.bsctrace"
        spill = tmp_path / "spill"
        assert main_run(["--workload", "hpcg", "--nx", "8",
                         "--nlevels", "1", "--iterations", "2",
                         "--ranks", "2", "--max-workers", "2",
                         "--spill-dir", str(spill), "--keep-spill",
                         "-o", str(path)]) == 0
        out = capsys.readouterr().out
        assert "per-rank spill kept at" in out
        run_dirs = list(spill.iterdir())
        assert len(run_dirs) == 1
        assert sorted(p.name for p in run_dirs[0].iterdir()) == [
            "rank00000.bsctrace", "rank00001.bsctrace",
        ]

    def test_spill_cleaned_by_default(self, tmp_path):
        path = tmp_path / "cluster.bsctrace"
        spill = tmp_path / "spill"
        assert main_run(["--workload", "stream", "--nx", "8",
                         "--iterations", "1", "--ranks", "2",
                         "--max-workers", "2",
                         "--spill-dir", str(spill), "-o", str(path)]) == 0
        assert list(spill.iterdir()) == []


class TestFold:
    def test_exports_panels(self, trace_file, tmp_path, capsys):
        out = tmp_path / "folded"
        assert main_fold([str(trace_file), "-o", str(out)]) == 0
        assert (out / "counters.dat").exists()
        assert (out / "addresses.dat").exists()
        captured = capsys.readouterr()
        assert "Folded report" in captured.out


class TestReport:
    def test_prints_analysis(self, trace_file, capsys):
        assert main_report([str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "Sampled references by data object" in out
        assert "E4" in out  # HPCG figure analysis

    def test_export_dir(self, trace_file, tmp_path, capsys):
        out = tmp_path / "fig"
        assert main_report([str(trace_file), "--export-dir", str(out)]) == 0
        assert (out / "figure1.txt").exists()


class TestValidate:
    def test_validate_fresh_trace(self, trace_file, capsys):
        assert main_validate([str(trace_file)]) == 0
        assert "Trace validation: OK" in capsys.readouterr().out

    @pytest.mark.parametrize("engine", ["precise", "vectorized", "analytic"])
    def test_validate_each_engine(self, engine, tmp_path, capsys):
        path = tmp_path / f"{engine}.bsctrace"
        assert main_run(["--workload", "stream", "--nx", "16",
                         "--iterations", "2", "--engine", engine,
                         "--load-period", "64", "--store-period", "64",
                         "-o", str(path)]) == 0
        assert main_validate([str(path)]) == 0
        assert "Trace validation: OK" in capsys.readouterr().out

    def test_validate_no_fold_flag(self, trace_file, capsys):
        assert main_validate([str(trace_file), "--no-fold"]) == 0
        assert "fold-mass" not in capsys.readouterr().out

    def test_validate_corrupted_trace_fails(self, trace_file, tmp_path, capsys):
        from repro.extrae.trace import Trace
        from repro.validate import inject_perturbation

        bad = inject_perturbation(
            Trace.load(trace_file), "address", 0, float(1 << 50)
        )
        bad_path = tmp_path / "bad.bsctrace"
        bad.save(bad_path)
        assert main_validate([str(bad_path)]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_validate_dispatch(self, trace_file):
        assert main(["validate", str(trace_file)]) == 0


class TestDispatcher:
    def test_usage_on_bad_command(self, capsys):
        assert main(["bogus"]) == 2
        assert main([]) == 2

    def test_dispatch_run(self, tmp_path):
        path = tmp_path / "d.bsctrace"
        assert main(["run", "--workload", "stream", "--nx", "16",
                     "--iterations", "1", "-o", str(path)]) == 0


class TestReportExtensions:
    def test_ascii_flag(self, trace_file, capsys):
        assert main_report([str(trace_file), "--ascii"]) == 0
        out = capsys.readouterr().out
        assert "addresses referenced" in out
        assert "counters / MIPS" in out

    def test_streams_flag(self, trace_file, capsys):
        assert main_report([str(trace_file), "--streams"]) == 0
        assert "Dominant data streams" in capsys.readouterr().out

    def test_advise_flag(self, trace_file, capsys):
        assert main_report([str(trace_file), "--advise"]) == 0
        assert "Hybrid-memory placement" in capsys.readouterr().out

    def test_overhead_flag(self, trace_file, capsys):
        assert main_report([str(trace_file), "--overhead"]) == 0
        assert "Monitoring-overhead model" in capsys.readouterr().out

    def test_paraver_flag(self, trace_file, tmp_path, capsys):
        base = tmp_path / "out"
        assert main_report([str(trace_file), "--paraver", str(base)]) == 0
        assert (tmp_path / "out.prv").exists()
        assert (tmp_path / "out.pcf").exists()


class TestFoldAlignment:
    def test_align_flag_default_regions(self, trace_file, tmp_path, capsys):
        out = tmp_path / "aligned"
        assert main_fold([str(trace_file), "-o", str(out), "--align"]) == 0
        assert (out / "counters.dat").exists()

    def test_align_flag_custom_regions(self, trace_file, tmp_path):
        out = tmp_path / "aligned2"
        assert main_fold(
            [str(trace_file), "-o", str(out), "--align", "ComputeSPMV_ref"]
        ) == 0


class TestFoldReps:
    def test_reps_flag(self, trace_file, tmp_path, capsys):
        out = tmp_path / "reps"
        assert main_fold([str(trace_file), "-o", str(out), "--reps", "2"]) == 0
        assert (out / "counters.dat").exists()
        assert not (out / "addresses.dat").exists()
        captured = capsys.readouterr().out
        assert "Extrapolated fold" in captured
        assert "representatives folded: 2" in captured

    def test_rep_report_prints_fidelity(self, trace_file, tmp_path, capsys):
        out = tmp_path / "reps"
        assert main_fold([str(trace_file), "-o", str(out), "--reps", "2",
                          "--rep-report"]) == 0
        captured = capsys.readouterr().out
        assert "fidelity vs exact fold" in captured
        assert "max curve error" in captured

    def test_rep_report_requires_reps(self, trace_file, tmp_path):
        with pytest.raises(SystemExit):
            main_fold([str(trace_file), "-o", str(tmp_path / "x"),
                       "--rep-report"])

    def test_reps_rejects_stream(self, trace_file, tmp_path):
        with pytest.raises(SystemExit):
            main_fold([str(trace_file), "-o", str(tmp_path / "x"),
                       "--reps", "2", "--stream"])

    def test_reps_rejects_align(self, trace_file, tmp_path):
        with pytest.raises(SystemExit):
            main_fold([str(trace_file), "-o", str(tmp_path / "x"),
                       "--reps", "2", "--align"])


class TestTrace:
    def test_info_v2(self, trace_file, capsys):
        assert main_trace(["info", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "trace container v2" in out
        assert "compression: none" in out
        assert "time_ns" in out
        assert "samples:" in out

    def test_info_v1(self, capsys):
        assert main_trace(["info", str(v1_fixture("schema"))]) == 0
        out = capsys.readouterr().out
        assert "trace container v1" in out
        assert "deflate (npz)" in out

    def test_convert_round_trip_verified(self, tmp_path, capsys):
        from repro.extrae.trace import Trace

        v1 = v1_fixture("schema")
        deflated = tmp_path / "deflated.bsctrace"
        stored = tmp_path / "stored.bsctrace"
        assert main_trace(
            ["convert", str(v1), "-o", str(deflated),
             "--compression", "deflate", "--verify"]
        ) == 0
        assert main_trace(
            ["convert", str(deflated), "-o", str(stored), "--verify"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("digest verified") == 2
        assert "(v2," in out
        assert Trace.load(stored).digest() == Trace.load(v1).digest()
        # Conversion writes only the current container.
        with pytest.raises(SystemExit):
            main_trace(["convert", str(v1), "-o", str(stored),
                        "--to-version", "1"])

    def test_run_honours_version_and_compression_flags(self, tmp_path):
        import json
        import zipfile

        path = tmp_path / "c.bsctrace"
        assert main_run(["--workload", "stream", "--nx", "16",
                         "--iterations", "1", "--compression", "deflate",
                         "-o", str(path)]) == 0
        with zipfile.ZipFile(path) as zf:
            sidecar = json.loads(zf.read("trace.json"))
        assert sidecar["schema"] == 2
        assert sidecar["compression"] == "deflate"
        # The container version is not a choice any more.
        with pytest.raises(SystemExit):
            main_run(["--workload", "stream", "--trace-version", "1",
                      "-o", str(tmp_path / "v1.bsctrace")])

    def test_trace_dispatch(self, trace_file):
        assert main(["trace", "info", str(trace_file)]) == 0


class TestRegionsRooflineFlags:
    def test_regions_flag(self, trace_file, capsys):
        assert main_report([str(trace_file), "--regions"]) == 0
        assert "Progression on code regions" in capsys.readouterr().out

    def test_roofline_flag(self, trace_file, capsys):
        assert main_report([str(trace_file), "--roofline"]) == 0
        assert "ridge point" in capsys.readouterr().out


class TestTraceInfoLazy:
    def test_v2_info_never_materializes_a_column(
        self, trace_file, capsys, monkeypatch
    ):
        from repro.extrae.storage import ColumnReader

        def boom(self, name):
            raise AssertionError(f"info materialized column {name!r}")

        monkeypatch.setattr(ColumnReader, "load", boom)
        assert main_trace(["info", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "samples:" in out
        assert "time span:" in out

    def test_v1_info_reads_only_npy_headers(self, capsys, monkeypatch):
        from repro.extrae.trace import Trace

        v1 = v1_fixture("schema")
        n_samples = Trace.load(v1).n_samples

        def boom(cls, path):
            raise AssertionError("info eagerly loaded the whole trace")

        monkeypatch.setattr(Trace, "load", classmethod(boom))
        assert main_trace(["info", str(v1)]) == 0
        out = capsys.readouterr().out
        assert f"samples:     {n_samples}" in out


class TestRepoCli:
    def test_put_list_info_path_rm(self, trace_file, tmp_path, capsys):
        from repro.cli import main_repo

        root = str(tmp_path / "repo")
        assert main_repo(["--root", root, "put", str(trace_file)]) == 0
        digest = capsys.readouterr().out.split()[0]
        assert len(digest) == 64

        assert main_repo(["--root", root, "list"]) == 0
        out = capsys.readouterr().out
        assert digest[:12] in out
        assert "hpcg" in out

        assert main_repo(["--root", root, "info", digest[:8]]) == 0
        assert '"workload": "hpcg"' in capsys.readouterr().out

        assert main_repo(["--root", root, "path", digest[:8]]) == 0
        assert capsys.readouterr().out.strip().endswith("trace.bsctrace")

        assert main_repo(["--root", root, "reindex"]) == 0
        assert main_repo(["--root", root, "rm", digest[:8]]) == 0
        capsys.readouterr()
        assert main_repo(["--root", root, "path", digest]) == 1

    def test_list_json(self, trace_file, tmp_path, capsys):
        import json

        from repro.cli import main_repo

        root = str(tmp_path / "repo")
        assert main_repo(["--root", root, "put", str(trace_file)]) == 0
        capsys.readouterr()
        assert main_repo(["--root", root, "list", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert len(listing) == 1
        (meta,) = listing.values()
        assert meta["workload"] == "hpcg"

    def test_unknown_digest_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main_repo

        assert main_repo(
            ["--root", str(tmp_path / "r"), "info", "deadbeef"]
        ) == 1
        assert "error:" in capsys.readouterr().err

    def test_dispatch(self, tmp_path, capsys):
        assert main(["repo", "--root", str(tmp_path / "r"), "list"]) == 0

    def test_run_publish(self, tmp_path, capsys):
        from repro.cli import main_repo

        root = str(tmp_path / "repo")
        out_path = tmp_path / "t.bsctrace"
        assert main_run(
            ["--workload", "stream", "--nx", "16", "--iterations", "2",
             "-o", str(out_path), "--publish", "--repo-root", root]
        ) == 0
        out = capsys.readouterr().out
        assert "published " in out
        digest = out.split("published ", 1)[1].split()[0]
        assert len(digest) == 64

        assert main_repo(["--root", root, "list", "--json"]) == 0
        import json

        listing = json.loads(capsys.readouterr().out)
        assert list(listing) == [digest]
        assert listing[digest]["workload"] == "stream"


class TestServeCli:
    def test_serve_answers_and_honours_max_requests(
        self, trace_file, tmp_path, capsys
    ):
        import socket
        import threading
        import time

        from repro.cli import main_repo, main_serve
        from repro.service import ServiceClient

        root = str(tmp_path / "repo")
        assert main_repo(["--root", root, "put", str(trace_file)]) == 0
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()

        result = {}
        thread = threading.Thread(
            target=lambda: result.setdefault(
                "rc",
                main_serve(
                    ["--root", root, "--port", str(port), "--workers", "1",
                     "--max-requests", "3"]
                ),
            ),
            daemon=True,
        )
        thread.start()

        health = listing = None
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                with ServiceClient("127.0.0.1", port, timeout=10) as c:
                    health = c.healthz()
                    listing = c.traces()
                    try:
                        # request 3 trips --max-requests; its response
                        # may be cut off by the shutdown
                        c.healthz()
                    except Exception:
                        pass
                break
            except OSError:
                time.sleep(0.05)
        assert health == {"ok": True}
        assert listing["n_traces"] == 1
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert result.get("rc") == 0
