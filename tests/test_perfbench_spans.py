"""The benchmark's span wrappers still find, and then restore, what they trace.

``perfbench/spans.py`` rebinds public ``ghd`` functions by name from outside
the package, so a rename under ``src/`` would otherwise surface only in a
traced benchmark run.
"""

from pathlib import Path

from ghd import cli, runtime, streaming

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_install_then_uninstall_restores_the_originals(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    originals = {
        (streaming, "ghd_via_streaming"): streaming.ghd_via_streaming,
        (streaming, "encode_streams"): streaming.encode_streams,
        (cli, "ghd_via_streaming"): cli.ghd_via_streaming,
        (runtime, "run_protocol"): runtime.run_protocol,
        (runtime.StreamReader, "index_below"): runtime.StreamReader.__dict__["index_below"],
    }
    uninstall = spans.install(spans.Tracer())
    try:
        for (owner, attr), original in originals.items():
            assert vars(owner)[attr] is not original, f"{attr} was not wrapped"
    finally:
        uninstall()
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, f"{attr} was not restored"
