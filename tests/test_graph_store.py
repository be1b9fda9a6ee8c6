"""Store-container suite: roundtrip, corruption rejection, atomicity.

The out-of-core pipeline trusts :mod:`repro.graph.store` completely —
workers re-open the container with validation mostly skipped
(``from_validated_arrays``), so every integrity property must be proven
here: lossless roundtrips for arbitrary graphs (hypothesis), loud
rejection of truncated/corrupt/foreign files, crash-atomic writes (a
SIGKILLed writer can never tear an existing container), and the external
two-pass build being bit-identical to the in-RAM builder no matter how
the edge stream is chunked.
"""

import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.generators.chunked import (
    build_store,
    edge_list,
    powerlaw_chunks,
    rmat_chunks,
    smallworld_chunks,
)
from repro.generators.powerlaw import powerlaw_social
from repro.generators.rmat import rmat
from repro.generators.smallworld import small_world
from repro.graph.builder import from_edges
from repro.graph import store
from repro.graph.csr import CSRGraph
from repro.graph.store import (
    STORE_MAGIC,
    from_edge_chunks,
    open_csr,
    store_info,
    verify_store,
    write_csr_store,
)
from repro.graph.transform import add_random_weights

# --------------------------------------------------------------------- #
# roundtrip (property-based)
# --------------------------------------------------------------------- #


@st.composite
def _graphs(draw) -> CSRGraph:
    n = draw(st.integers(min_value=1, max_value=40))
    m = draw(st.integers(min_value=0, max_value=120))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    weighted = draw(st.booleans())
    rng = np.random.default_rng(seed)
    g = from_edges(
        rng.integers(0, n, size=m), rng.integers(0, n, size=m),
        num_vertices=n, name="hyp",
    )
    return add_random_weights(g, seed=seed) if weighted else g


def _assert_same_graph(a: CSRGraph, b: CSRGraph) -> None:
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)
    assert a.indices.dtype == b.indices.dtype
    assert a.has_weights == b.has_weights
    if a.has_weights:
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.weights.dtype == b.weights.dtype


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(g=_graphs())
def test_roundtrip_both_modes(g, tmp_path):
    path = str(tmp_path / f"hyp_{g.num_vertices}_{g.num_edges}.csr")
    header = write_csr_store(g, path)
    assert header["num_vertices"] == g.num_vertices
    assert header["num_edges"] == g.num_edges
    assert header["total_bytes"] == os.path.getsize(path)
    for mode in ("ram", "mmap"):
        g2 = open_csr(path, mode=mode)
        _assert_same_graph(g, g2)
        assert g2.name == "hyp"
        # identical bytes => identical identity for the partition cache
        assert g2.content_hash() == g.content_hash()


def test_mmap_mode_serves_memmaps(tmp_path):
    g = add_random_weights(rmat(5, seed=1), seed=0)
    path = str(tmp_path / "g.csr")
    write_csr_store(g, path)
    m = open_csr(path, mode="mmap")
    for arr in (m.indptr, m.indices, m.weights):
        # _freeze re-wraps the memmap in a zero-copy ndarray view
        assert isinstance(arr, np.memmap) or isinstance(arr.base, np.memmap)
        assert not arr.flags.writeable
    r = open_csr(path, mode="ram")
    for arr in (r.indptr, r.indices, r.weights):
        assert not isinstance(arr, np.memmap)
        assert not isinstance(arr.base, np.memmap)


def test_bad_mode_rejected(tmp_path):
    g = rmat(4, seed=0)
    path = str(tmp_path / "g.csr")
    write_csr_store(g, path)
    with pytest.raises(ValueError, match="mode"):
        open_csr(path, mode="disk")


# --------------------------------------------------------------------- #
# corruption / truncation rejection
# --------------------------------------------------------------------- #


def _store_path(tmp_path) -> str:
    g = add_random_weights(rmat(6, seed=2), seed=2)
    path = str(tmp_path / "g.csr")
    write_csr_store(g, path)
    return path


def test_truncated_file_rejected(tmp_path):
    path = _store_path(tmp_path)
    size = os.path.getsize(path)
    with open(path, "r+b") as f:
        f.truncate(size - 5)
    with pytest.raises(GraphFormatError, match="truncated"):
        store_info(path)
    with pytest.raises(GraphFormatError):
        open_csr(path, mode="mmap")


def test_padded_file_rejected(tmp_path):
    path = _store_path(tmp_path)
    with open(path, "ab") as f:
        f.write(b"\x00" * 16)
    with pytest.raises(GraphFormatError, match="truncated or padded"):
        store_info(path)


def test_foreign_file_rejected(tmp_path):
    path = str(tmp_path / "not_a_store.csr")
    with open(path, "wb") as f:
        f.write(b"\x00" * 8192)
    with pytest.raises(GraphFormatError, match="bad magic"):
        store_info(path)


def test_future_version_rejected(tmp_path):
    path = _store_path(tmp_path)
    with open(path, "r+b") as f:
        f.seek(len(STORE_MAGIC))
        f.write((99).to_bytes(4, "little"))
    with pytest.raises(GraphFormatError, match="version 99"):
        store_info(path)


def test_corrupt_header_rejected(tmp_path):
    path = _store_path(tmp_path)
    with open(path, "r+b") as f:
        f.seek(len(STORE_MAGIC) + 12 + 10)  # inside the JSON payload
        f.write(b"\xff")
    with pytest.raises(GraphFormatError, match="corrupt store header"):
        store_info(path)


def test_corrupt_section_caught_by_verify(tmp_path):
    path = _store_path(tmp_path)
    header = store_info(path)
    sec = header["sections"]["indices"]
    with open(path, "r+b") as f:
        f.seek(sec["offset"] + sec["nbytes"] // 2)
        byte = f.read(1)
        f.seek(-1, os.SEEK_CUR)
        f.write(bytes([byte[0] ^ 0xFF]))
    with pytest.raises(GraphFormatError, match="CRC mismatch"):
        verify_store(path)
    # ram mode verifies by default; mmap must catch it when asked
    with pytest.raises(GraphFormatError, match="CRC mismatch"):
        open_csr(path, mode="ram")
    with pytest.raises(GraphFormatError, match="CRC mismatch"):
        open_csr(path, mode="mmap", verify=True)


def test_tampered_indptr_caught_without_full_verify(tmp_path):
    path = _store_path(tmp_path)
    header = store_info(path)
    sec = header["sections"]["indptr"]
    bad = np.memmap(path, dtype=np.dtype(sec["dtype"]), mode="r+",
                    offset=sec["offset"],
                    shape=(sec["nbytes"] // np.dtype(sec["dtype"]).itemsize,))
    bad[-1] = 0  # endpoints now disagree with |E|
    bad.flush()
    del bad
    with pytest.raises(GraphFormatError, match="indptr"):
        open_csr(path, mode="mmap")  # structural check runs even unverified


# --------------------------------------------------------------------- #
# atomicity
# --------------------------------------------------------------------- #


def test_failed_build_leaves_nothing(tmp_path):
    path = str(tmp_path / "g.csr")

    def chunks():
        yield np.array([0, 1]), np.array([1, 0])
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        from_edge_chunks(chunks(), path, num_vertices=2)
    assert not os.path.exists(path)
    assert os.listdir(tmp_path) == []  # no temp or spill leftovers


_KILLED_WRITER = textwrap.dedent("""
    import sys, time
    import numpy as np
    from repro.graph import store
    from repro.generators.rmat import rmat

    path = sys.argv[1]
    real = store._finalize_store

    def slow_finalize(*args, **kwargs):
        print("FINALIZING", flush=True)
        time.sleep(60)  # parent SIGKILLs us here, data written, not renamed
        real(*args, **kwargs)

    store._finalize_store = slow_finalize
    store.write_csr_store(rmat(7, seed=9), path)
""")


def test_sigkill_mid_write_never_tears_existing_store(tmp_path):
    """A writer killed after writing data but before the atomic rename must
    leave the previous container byte-for-byte intact."""
    path = str(tmp_path / "g.csr")
    original = add_random_weights(rmat(5, seed=4), seed=4)
    write_csr_store(original, path)
    before = verify_store(path)

    env = dict(os.environ)
    src_dir = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src_dir) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", _KILLED_WRITER, path],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    try:
        line = proc.stdout.readline()
        assert line.strip() == "FINALIZING"
        proc.kill()
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()
    assert proc.returncode == -signal.SIGKILL
    # the original survives full verification and still decodes identically
    assert verify_store(path) == before
    _assert_same_graph(original, open_csr(path, mode="ram"))


# --------------------------------------------------------------------- #
# external two-pass build
# --------------------------------------------------------------------- #


def test_from_edge_chunks_matches_from_edges_any_chunking(tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    n, m = 50, 400
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    ref = from_edges(src, dst, num_vertices=n)
    for chunk in (1, 7, 64, m):
        blocks = [(src[i : i + chunk], dst[i : i + chunk]) for i in range(0, m, chunk)]
        # tiny windows force many scatter blocks and the bounded row sort
        for window in (16, 1 << 22):
            monkeypatch.setattr(store, "SORT_WINDOW_EDGES", window)
            path = str(tmp_path / f"g{chunk}_{window}.csr")
            from_edge_chunks(iter(blocks), path, num_vertices=n)
            _assert_same_graph(ref, open_csr(path, mode="ram"))


def test_from_edge_chunks_weight_seed_matches_in_ram_path(tmp_path):
    g = rmat(6, seed=3)
    ref = add_random_weights(g, seed=5)
    path = str(tmp_path / "g.csr")
    from_edge_chunks(
        [(g.edge_sources(), g.indices)], path,
        num_vertices=g.num_vertices, weight_seed=5,
    )
    _assert_same_graph(ref, open_csr(path, mode="ram"))


def test_from_edge_chunks_input_validation(tmp_path):
    path = str(tmp_path / "g.csr")
    two = np.array([0, 1])
    with pytest.raises(GraphFormatError, match="exceeds num_vertices"):
        from_edge_chunks([(two, np.array([1, 5]))], path, num_vertices=2)
    with pytest.raises(GraphFormatError, match="negative"):
        from_edge_chunks([(np.array([-1, 0]), two)], path, num_vertices=2)
    with pytest.raises(GraphFormatError, match="equal-length"):
        from_edge_chunks([(two, np.array([1]))], path, num_vertices=2)
    assert not os.path.exists(path)


def test_empty_stream_builds_empty_store(tmp_path):
    path = str(tmp_path / "empty.csr")
    header = from_edge_chunks([], path, num_vertices=5)
    assert header["num_edges"] == 0
    g = open_csr(path, mode="mmap")
    assert g.num_vertices == 5 and g.num_edges == 0


# --------------------------------------------------------------------- #
# chunked generators
# --------------------------------------------------------------------- #


def test_rmat_chunks_bit_identical_to_in_ram_generator():
    scale = 7
    ref = rmat(scale, edge_factor=16, seed=3)
    src = np.concatenate(
        [s for s, _ in rmat_chunks(scale, edge_factor=16, seed=3,
                                   chunk_edges=100)]
    )
    dst = np.concatenate(
        [d for _, d in rmat_chunks(scale, edge_factor=16, seed=3,
                                   chunk_edges=100)]
    )
    _assert_same_graph(ref, from_edges(src, dst, num_vertices=1 << scale))


@pytest.mark.parametrize("chunk_edges", [None, 10_000])
def test_powerlaw_chunks_one_block_is_the_in_ram_generator(chunk_edges):
    """One block of every edge (exactly m, or anything above it) makes the
    in-RAM generator's RNG calls in its order — it *is* that generator."""
    params = dict(exponent=2.1, num_hubs=3, in_out_symmetry=0.6, seed=4)
    n, deg = 300, 5.0
    ref = powerlaw_social(n, deg, **params)
    blocks = list(
        powerlaw_chunks(n, deg, chunk_edges=chunk_edges or int(n * deg), **params)
    )
    assert len(blocks) == 1
    _assert_same_graph(ref, from_edges(*blocks[0], num_vertices=n))


@pytest.mark.parametrize("chunk_edges", [None, 10_000])
def test_smallworld_chunks_one_block_is_the_in_ram_generator(chunk_edges):
    n, k = 200, 5
    ref = small_world(n, k=k, rewire_p=0.3, seed=9)
    blocks = list(
        smallworld_chunks(n, k=k, rewire_p=0.3, seed=9,
                          chunk_edges=chunk_edges or n * k)
    )
    assert len(blocks) == 1
    _assert_same_graph(ref, from_edges(*blocks[0], num_vertices=n))


def test_edge_list_of_an_edgeless_model_is_empty():
    src, dst = edge_list(powerlaw_chunks, 10, 0.0, seed=1)
    assert len(src) == len(dst) == 0 and src.dtype == np.int64
    assert powerlaw_social(10, 0.0, seed=1).num_edges == 0
    assert rmat(3, edge_factor=0.0).num_edges == 0


def test_build_store_invariant_to_chunking(tmp_path):
    paths = []
    for chunk_edges in (257, 1 << 14):
        path = str(tmp_path / f"c{chunk_edges}.csr")
        build_store("rmat", 6, path, chunk_edges=chunk_edges, seed=11)
        paths.append(path)
    a, b = (verify_store(p) for p in paths)
    assert [s["crc32"] for s in a["sections"].values()] == [
        s["crc32"] for s in b["sections"].values()
    ]


def test_build_store_matches_in_ram_rmat_with_weights(tmp_path):
    path = str(tmp_path / "g.csr")
    build_store("rmat", 6, path, seed=3, weight_seed=0)
    ref = add_random_weights(rmat(6, edge_factor=16, seed=3), seed=0)
    _assert_same_graph(ref, open_csr(path, mode="ram"))


@pytest.mark.parametrize("kind", ["powerlaw", "smallworld"])
def test_other_chunked_kinds_build_valid_stores(tmp_path, kind):
    path = str(tmp_path / f"{kind}.csr")
    kwargs = {"avg_degree": 4.0} if kind == "powerlaw" else {}
    header = build_store(kind, 6, path, seed=2, chunk_edges=64, **kwargs)
    assert header["num_vertices"] == 64
    g = open_csr(path, mode="ram")  # full CRC verification
    assert g.num_edges == header["num_edges"] > 0
    # re-validate through the untrusted constructor too
    CSRGraph(np.asarray(g.indptr), np.asarray(g.indices),
             np.asarray(g.weights))
