"""Trace file round-trips and malformed-input diagnostics."""

import hashlib
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from kvsim.traceio import BLOCK_VALUES, Trace, TraceError, TraceHeader, read_trace, stream_trace, synthetic_trace, write_trace


def file_sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def assert_same_rows(a, b):
    assert (a.M, a.T) == (b.M, b.T)
    assert np.array_equal(a.prefill_scores, b.prefill_scores)
    assert len(a.rows) == len(b.rows)
    for ra, rb in zip(a.rows, b.rows):
        assert np.array_equal(ra, rb)


class TestRoundTrip:
    def test_small_trace(self, tmp_path):
        trace = synthetic_trace(4, 2, seed=0)
        path = tmp_path / "small.trace"
        write_trace(trace, path)
        back = read_trace(path)
        assert back.M == 4 and back.T == 2
        assert np.array_equal(back.prefill_scores, trace.prefill_scores)
        for a, b in zip(back.rows, trace.rows):
            assert np.array_equal(a, b)

    def test_long_trace_hash_identical_after_round_trip(self, tmp_path):
        trace = synthetic_trace(3, 1000, seed=7)
        first = tmp_path / "first.trace"
        second = tmp_path / "second.trace"
        write_trace(trace, first)
        write_trace(read_trace(first), second)
        assert file_sha256(first) == file_sha256(second)

    @pytest.mark.parametrize("m, t_steps", [(5, 0), (1, 6), (1, 0)])
    def test_edge_shapes(self, tmp_path, m, t_steps):
        trace = synthetic_trace(m, t_steps, seed=2)
        path = tmp_path / "edge.trace"
        write_trace(trace, path)
        assert_same_rows(read_trace(path), trace)

    def test_version_2_layout(self, tmp_path):
        # header line, then row t at element M*t + t*(t-1)/2 of one <f8 payload
        trace = synthetic_trace(3, 4, seed=5)
        path = tmp_path / "layout.trace"
        write_trace(trace, path)
        head, _, payload = path.read_bytes().partition(b"\n")
        assert json.loads(head) == {
            "version": 2, "M": 3, "T": 4, "layers": 1, "heads": 1, "aggregation": "synthetic=exponential",
        }
        values = np.frombuffer(payload, dtype="<f8")
        assert len(values) == 3 * 5 + 4 * 5 // 2
        assert np.array_equal(values[:3], trace.prefill_scores)
        for t, row in enumerate(trace.rows, start=1):
            start = 3 * t + t * (t - 1) // 2
            assert np.array_equal(values[start:start + 3 + t], row)

    def test_file_is_the_header_line_then_the_concatenated_rows(self, tmp_path):
        trace = synthetic_trace(5, 7, seed=1)
        path = tmp_path / "bytes.trace"
        write_trace(trace, path)
        header = {"version": 2, "M": 5, "T": 7, "layers": 1, "heads": 1, "aggregation": "synthetic=exponential"}
        payload = np.concatenate([trace.prefill_scores, *trace.rows]).astype("<f8")
        assert path.read_bytes() == json.dumps(header).encode("ascii") + b"\n" + payload.tobytes()

    def test_write_holds_no_copy_of_the_payload(self, tmp_path):
        trace = synthetic_trace(512, 2048, seed=0)  # a 24 MiB payload
        tracemalloc.start()
        try:
            write_trace(trace, tmp_path / "big.trace")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024

    def test_write_of_a_drawn_trace_holds_one_row(self, tmp_path):
        # M=512, T=1536: a 15.7 MB file, drawn and written a row at a time
        path = tmp_path / "drawn.trace"
        tracemalloc.start()
        try:
            write_trace(synthetic_trace(512, 1536, seed=0), path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 15_700_000
        assert peak < path.stat().st_size / 10

    def test_file_rows_are_read_only_and_equal_the_rows_written_on_every_pass(self, tmp_path):
        path = tmp_path / "rows.trace"
        trace = synthetic_trace(4, 5, seed=0)
        write_trace(trace, path)
        back = read_trace(path)
        assert back.prefill_scores.tobytes() == trace.prefill_scores.tobytes()
        passes = [list(back.rows), list(back.rows)]
        for first, second, written in zip(*passes, trace.rows, strict=True):
            assert first.tobytes() == second.tobytes() == written.tobytes()
            assert first is not second
        for array in (back.prefill_scores, passes[0][2], passes[1][2]):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_read_holds_the_prompt_row_alone(self, tmp_path):
        # M=512, T=1536: a 15.7 MB payload, checked a block at a time
        path = tmp_path / "big.trace"
        write_trace(synthetic_trace(512, 1536, seed=0), path)
        read_trace(path)  # a first read: one-time allocations do not count
        tracemalloc.start()
        try:
            trace = read_trace(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        payload = 8 * (512 * 1537 + 1536 * 1537 // 2)
        assert path.stat().st_size > payload > 15_700_000
        assert peak < payload / 10
        assert len(trace.rows) == 1536

    def test_synthetic_traces_deterministic(self):
        a = synthetic_trace(6, 9, seed=3)
        b = synthetic_trace(6, 9, seed=3)
        assert np.array_equal(a.prefill_scores, b.prefill_scores)
        for ra, rb in zip(a.rows, b.rows):
            assert np.array_equal(ra, rb)

    # sha256 over the prompt row and every step row as little-endian
    # float64, recorded with exponential(1.0, n) draws and out-of-place
    # normalization: the in-place form must keep every bit
    @pytest.mark.parametrize("m, t_steps, seed, digest", [
        (1, 0, 0, "4287a6e1c03635aec9a9dc4ffc79db832c2410bd2087bf04535761d960d451d9"),
        (7, 33, 3, "ff599242447e7770e01b3c8209a22e020bcd58fb6437c3f7b35a393c8d53bdd9"),
        (300, 200, 11, "e1c42051a627f8bcf0ca10cc4f082a1b4b2a0eff28807a583e8e90999b9a4cc3"),
    ])
    def test_synthetic_trace_bits_pinned(self, m, t_steps, seed, digest):
        trace = synthetic_trace(m, t_steps, seed)
        sha = hashlib.sha256()
        for row in (trace.prefill_scores, *trace.rows):
            sha.update(np.ascontiguousarray(row, dtype="<f8").tobytes())
        assert sha.hexdigest() == digest


class TestErrors:
    """Files and traces that are not a trace of this format."""

    def test_version_mismatch(self, tmp_path):
        # the line-delimited JSON format of version 1 is read no more
        path = tmp_path / "old.trace"
        write_trace(synthetic_trace(4, 3, seed=0), path)
        head, _, payload = path.read_bytes().partition(b"\n")
        path.write_bytes(head.replace(b'"version": 2', b'"version": 1') + b"\n" + payload)
        with pytest.raises(TraceError, match="line 1: unsupported trace version 1$"):
            read_trace(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_text("")
        with pytest.raises(TraceError, match="empty"):
            read_trace(path)

    def test_construction_validates_shapes(self):
        with pytest.raises(TraceError, match="prompt score row"):
            Trace(M=4, T=0, prefill_scores=np.ones(3), rows=[])
        with pytest.raises(TraceError, match="expected M"):
            Trace(M=2, T=1, prefill_scores=np.ones(2), rows=[np.ones(5)])

    def test_drawn_rows_of_another_prompt_length_rejected(self):
        trace = synthetic_trace(4, 3, seed=1)
        with pytest.raises(TraceError, match="rows drawn for M=4, expected M=5"):
            Trace(M=5, T=3, prefill_scores=np.ones(5), rows=trace.rows)

    @pytest.mark.parametrize("edit", ["truncate", "append", "same_size_nan", "delete"])
    def test_file_changed_after_read_raises_on_the_next_pass(self, tmp_path, edit):
        path = tmp_path / "changed.trace"
        write_trace(synthetic_trace(4, 3, seed=0), path)
        # recorded long before it is read: a rewrite gets another mtime even where timestamps are coarse
        os.utime(path, ns=(10**9, 10**9))
        trace = read_trace(path)
        assert len(list(trace.rows)) == 3
        data = path.read_bytes()
        if edit == "truncate":
            path.write_bytes(data[:-8])
        elif edit == "append":
            path.write_bytes(data + data[-8:])
        elif edit == "same_size_nan":
            path.write_bytes(data[:-8] + np.array([np.nan], dtype="<f8").tobytes())
        else:
            path.unlink()
        with pytest.raises(TraceError, match=re.escape(str(path))):
            next(iter(trace.rows))

    # M=64, T=480: 146,224 values, so the payload spans three blocks of
    # BLOCK_VALUES = 65,536; each index lies in a block after the first
    @pytest.mark.parametrize("index, value", [
        (BLOCK_VALUES, np.nan), (BLOCK_VALUES + 4321, np.inf), (2 * BLOCK_VALUES - 1, -1.0),
    ], ids=["nan_first_of_block", "inf_inside_block", "negative_last_of_block"])
    def test_bad_score_past_the_first_block_names_its_row_and_position(self, tmp_path, index, value):
        m, t_max = 64, 480
        assert BLOCK_VALUES == 65_536 and m * (t_max + 1) + t_max * (t_max + 1) // 2 == 146_224
        path = tmp_path / "blocks.trace"
        write_trace(synthetic_trace(m, t_max, seed=0), path)
        head, _, payload = path.read_bytes().partition(b"\n")
        values = np.frombuffer(payload, dtype="<f8").copy()
        values[index] = value
        values[-1] = np.nan  # a later bad score, in the last block: the first one is named
        path.write_bytes(head + b"\n" + values.tobytes())
        t, start = 0, 0
        while start + m + t <= index:  # row t holds m + t values
            start += m + t
            t += 1
        with pytest.raises(TraceError, match=re.escape(f"row t={t}, position {index - start}: score {value} ")):
            read_trace(path)

    @pytest.mark.parametrize("rows, message", [
        ([np.ones(4), np.ones(5), np.ones(7)], "row t=2 of length 7 does not fit a trace of M=4, T=3"),
        ([np.ones(4), np.ones(5)], "2 rows written, a trace of T=3 has 4"),
        ([np.ones(4 + t) for t in range(5)], "row t=4 of length 8 does not fit"),
    ], ids=["wrong_length", "too_few", "too_many"])
    def test_stream_rejects_rows_that_do_not_fit(self, tmp_path, rows, message):
        with pytest.raises(TraceError, match=message):
            stream_trace(TraceHeader(4, 3), iter(rows), tmp_path / "bad.trace")


class TestErrorsV2:
    """Malformed files of the one format, version 2: payload and header."""

    M, T = 4, 3
    PAYLOAD_BYTES = 8 * (M * (T + 1) + T * (T + 1) // 2)

    def write_good(self, tmp_path):
        path = tmp_path / "good.trace"
        write_trace(synthetic_trace(self.M, self.T, seed=0), path)
        assert len(path.read_bytes().partition(b"\n")[2]) == self.PAYLOAD_BYTES
        return path

    def edit_header(self, path, **fields):
        head, _, payload = path.read_bytes().partition(b"\n")
        path.write_bytes(json.dumps({**json.loads(head), **fields}).encode() + b"\n" + payload)

    @pytest.mark.parametrize("cut", [8, 3, PAYLOAD_BYTES], ids=["last_float", "partial_float", "whole_payload"])
    def test_truncated_payload(self, tmp_path, cut):
        path = self.write_good(tmp_path)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(TraceError, match=f"truncated trace: payload of {self.PAYLOAD_BYTES - cut} bytes"):
            read_trace(path)

    @pytest.mark.parametrize("extra", [b"\0" * 8, b"\0" * 3], ids=["whole_float", "partial_float"])
    def test_trailing_bytes(self, tmp_path, extra):
        path = self.write_good(tmp_path)
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(TraceError, match="trailing bytes"):
            read_trace(path)

    def test_version_mismatch(self, tmp_path):
        path = self.write_good(tmp_path)
        self.edit_header(path, version=9)
        with pytest.raises(TraceError, match="version 9"):
            read_trace(path)

    @pytest.mark.parametrize("fields", [{"T": 2}, {"M": 5}], ids=["T", "M"])
    def test_header_shape_inconsistent_with_payload(self, tmp_path, fields):
        path = self.write_good(tmp_path)
        self.edit_header(path, **fields)
        with pytest.raises(TraceError, match="payload of"):
            read_trace(path)

    @pytest.mark.parametrize("fields", [{"M": 0}, {"M": -1}, {"T": -1}], ids=["M0", "M-1", "T-1"])
    def test_header_shape_out_of_range(self, tmp_path, fields):
        path = self.write_good(tmp_path)
        self.edit_header(path, **fields)
        with pytest.raises(TraceError, match="M >= 1 and T >= 0"):
            read_trace(path)

    @pytest.mark.parametrize(
        "fields",
        [
            {"M": 3.7}, {"M": 4.0}, {"M": True}, {"T": "3"}, {"T": None}, {"layers": -4}, {"layers": 0},
            {"layers": 1.5}, {"heads": "2"}, {"heads": 0}, {"heads": False}, {"aggregation": 5},
            {"aggregation": None},
        ],
        ids=lambda fields: "-".join(f"{k}={v!r}" for k, v in fields.items()),
    )
    def test_header_values_of_the_wrong_type_or_range(self, tmp_path, fields):
        # M, T, layers and heads are JSON integers (no bools), layers and heads >= 1,
        # aggregation a string; int() and str() would have passed most of these
        path = self.write_good(tmp_path)
        self.edit_header(path, **fields)
        with pytest.raises(TraceError, match="line 1: header needs"):
            read_trace(path)

    @pytest.mark.parametrize("key", ["M", "T", "layers", "heads", "aggregation"])
    def test_header_key_missing(self, tmp_path, key):
        path = self.write_good(tmp_path)
        head, _, payload = path.read_bytes().partition(b"\n")
        fields = json.loads(head)
        del fields[key]
        path.write_bytes(json.dumps(fields).encode() + b"\n" + payload)
        with pytest.raises(TraceError, match=f"line 1: header needs .*'{key}': None"):
            read_trace(path)

    def test_binary_header_line(self, tmp_path):
        path = tmp_path / "garbage.trace"
        path.write_bytes(np.arange(4, dtype="<f8").tobytes())
        with pytest.raises(TraceError, match="line 1"):
            read_trace(path)
