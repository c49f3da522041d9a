"""The command line pauses the cyclic garbage collector for one command.

That is safe only while what a command leaves for the collector does not
grow with its input.  These tests count it, with the collector off, at a
small and a large input of each command, and check that ``main`` hands the
collector back as it found it.  One more checks that a process running
many commands keeps no more memory blocks as the commands go on.
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path

import pytest

from cogscope import cli
from cogscope.generator import GeneratorConfig, generate

REPO = Path(__file__).resolve().parents[1]

# The settings of the benchmark's analyze-large files (about 10k tokens).
LARGE = GeneratorConfig(seed=12, max_statements=1200, max_nesting_depth=4, variable_pool_size=12)


def _run(argv: list[str]) -> None:
    try:
        cli.main(argv)
    except SystemExit:
        pass


def _garbage_counts(sizes: list[list[str]], capsys) -> list[int]:
    """Objects ``gc.collect()`` finds unreachable after one ``main`` call per argv, collector off."""
    _run(sizes[0])  # warm-up: imports, caches and first-use state
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        counts = []
        for argv in sizes:
            _run(argv)
            capsys.readouterr()
            counts.append(gc.collect())
        return counts
    finally:
        if was_enabled:
            gc.enable()


def _corpus_dir(directory, files: int):
    directory.mkdir()
    for index in range(files):
        text = generate(GeneratorConfig(seed=index, max_statements=20))
        if index % 4 == 3:
            text = text[: len(text) // 2]  # a located parse error
        (directory / f"p{index:02d}.ml1").write_text(text)
    return directory


@pytest.mark.parametrize("flags", [[], ["--format", "json"], ["--granules"]], ids=["text", "json", "granules"])
def test_analyze_leaves_the_same_garbage_for_a_small_and_a_large_file(flags, fixtures_dir, tmp_path, capsys):
    large = tmp_path / "large.ml1"
    large.write_text(generate(LARGE))
    small = fixtures_dir / "eg3.ml1"
    counts = _garbage_counts([["analyze", str(path), *flags] for path in (small, large)], capsys)
    assert counts[0] == counts[1]


def test_corpus_leaves_the_same_garbage_for_5_and_40_files(tmp_path, capsys):
    sizes = [["corpus", str(_corpus_dir(tmp_path / str(files), files)), "--csv"] for files in (5, 40)]
    counts = _garbage_counts(sizes, capsys)
    assert counts[0] == counts[1]


def test_weyuker_leaves_the_same_garbage_for_20_and_200_trials(capsys):
    sizes = [["weyuker", "--seed", "3", "--trials", trials, "--metrics", "escim,loc,mccm,cpcm",
              "--format", "json"] for trials in ("20", "200")]
    counts = _garbage_counts(sizes, capsys)
    assert counts[0] == counts[1]


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="counts CPython's allocated memory blocks")
def test_many_commands_in_one_process_do_not_grow_the_heap(tmp_path, capsys):
    # A variable-length tuple freed under the paused collector stays in
    # CPython's per-size free list until a full collection, so a process
    # that runs many commands would keep what its largest one freed.
    directory = _corpus_dir(tmp_path / "corpus", 20)
    blocks = {}
    for k in range(1, 41):
        _run(["weyuker", "--seed", str(k), "--trials", "20", "--metrics", "escim,loc", "--format", "json"])
        _run(["corpus", str(directory), "--csv"])
        capsys.readouterr()
        if k in (10, 40):
            blocks[k] = sys.getallocatedblocks()
    assert blocks[40] - blocks[10] < 2000, blocks


def test_usage_error_leaves_the_same_garbage_for_a_short_and_a_long_command(capsys):
    sizes = [["analyze", "a.ml1", "--nope"], ["analyze", *(f"{i}.ml1" for i in range(200)), "--nope"]]
    counts = _garbage_counts(sizes, capsys)
    assert counts[0] == counts[1]


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize(
    "argv, code",
    [(["analyze", "tests/fixtures/eg1.ml1"], 0), (["analyze", "no-such-file.ml1"], 1), (["analyze", "--nope"], 2)],
    ids=["exit-0", "exit-1", "usage-error"],
)
def test_main_pauses_the_collector_and_restores_it(argv, code, enabled, monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    inside = []
    analyze = cli.analyze_source

    def recording(*args, **kwargs):
        inside.append(gc.isenabled())
        return analyze(*args, **kwargs)

    monkeypatch.setattr(cli, "analyze_source", recording)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            result = cli.main(argv)
        except SystemExit as exc:
            result = exc.code
        after = gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert result == code
    assert after is enabled
    assert inside == ([False] if code == 0 else [])
