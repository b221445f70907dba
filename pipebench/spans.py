"""Outside-in tracing: spans around calls into cloneval's public functions.

Nothing under ``src/`` is changed. Each module imports its collaborators by
name, so a function is patched where it is looked up: ``cloneval.cli`` for
the run-level calls, ``cloneval.pipeline`` for the per-pair front end,
``cloneval.features`` for the calls ``extract_summaries`` dispatches, and the
``cloneval._kernels`` module attributes that ``audio_io`` and ``features``
read at call time.

A worker thread runs one pair at a time, so the pair-level spans on a thread,
up to and including its ``score_pair`` call, share one pair identifier.
Spans are kept in memory and written out once, after the pass.
"""

import itertools
import json
import statistics
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute to patch, span name); run-level spans carry no pair id
RUN_LEVEL = (
    ("cli", "load_backend", "embeddings.load_backend"),
    ("cli", "discover_pairs", "pipeline.discover_pairs"),
    ("cli", "evaluate_corpus", "pipeline.evaluate_corpus"),
    ("cli", "aggregate", "pipeline.aggregate"),
    ("cli", "write_reports", "pipeline.write_reports"),
)
PAIR_LEVEL = (
    ("pipeline", "decode_wav", "audio_io.decode_wav"),
    ("pipeline", "downmix_mono", "audio_io.downmix_mono"),
    ("pipeline", "resample", "audio_io.resample"),
    ("pipeline", "extract_summaries", "features.extract_summaries"),
    ("pipeline", "embed", "embeddings.embed"),
    ("pipeline", "score_pair", "similarity.score_pair"),
    ("_kernels", "polyphase_resample", "kernels.polyphase_resample"),
    ("_kernels", "yin_cmnd", "kernels.yin_cmnd"),
    ("_kernels", "local_autocorr", "kernels.local_autocorr"),
) + tuple(
    ("features", fn, f"features.{fn}")
    for fn in (
        "frame_signal", "stft", "f0_contour", "rms_envelope", "spectral_centroid",
        "spectral_flatness", "spectral_rolloff", "onset_strength", "tempogram",
        "chroma_stft", "pseudo_cqt", "chroma_cqt", "summarize",
        "mel_filterbank", "chroma_filterbank",
    )
)
PAIR_END = "similarity.score_pair"
ROOT = "cli.main"

# per-layer metric -> span whose total time it reports, per 10 s of input audio
MS_PER_10S = {
    "audio_io.decode_wav.ms_per_10s": "audio_io.decode_wav",
    "audio_io.downmix_mono.ms_per_10s": "audio_io.downmix_mono",
    "audio_io.resample.ms_per_10s": "audio_io.resample",
    "kernels.polyphase_resample.ms_per_10s": "kernels.polyphase_resample",
    "kernels.yin_cmnd.ms_per_10s": "kernels.yin_cmnd",
    "kernels.local_autocorr.ms_per_10s": "kernels.local_autocorr",
    "features.stft.ms_per_10s": "features.stft",
    "features.rms_envelope.ms_per_10s": "features.rms_envelope",
    "features.spectral_centroid.ms_per_10s": "features.spectral_centroid",
    "features.spectral_flatness.ms_per_10s": "features.spectral_flatness",
    "features.spectral_rolloff.ms_per_10s": "features.spectral_rolloff",
    "features.onset_strength.ms_per_10s": "features.onset_strength",
    "features.tempogram.ms_per_10s": "features.tempogram",
    "features.chroma_stft.ms_per_10s": "features.chroma_stft",
    "features.pseudo_cqt.ms_per_10s": "features.pseudo_cqt",
    "features.chroma_cqt.ms_per_10s": "features.chroma_cqt",
}
# the same, on self time (span minus its child spans)
SELF_MS_PER_10S = {
    "features.f0_contour.self_ms_per_10s": "features.f0_contour",
    "features.extract_summaries.self_ms_per_10s": "features.extract_summaries",
}


class Tracer:
    """Records spans as (name, start, end, id, parent, pair, converted)."""

    def __init__(self, modules: dict):
        self._modules = modules  # short name -> imported cloneval module
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._pairs = itertools.count(1)
        self.spans = []

    def _wrap(self, name, fn, pair_level):
        local, ids, pairs, spans = self._local, self._ids, self._pairs, self.spans
        ends_pair = name == PAIR_END
        notes_conversion = name == "audio_io.resample"

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.pair = next(pairs)
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            # resample returns its input untouched when no conversion is needed
            converted = notes_conversion and result is not args[0]
            spans.append((name, start, end, span_id, parent,
                           local.pair if pair_level else None, converted))
            if ends_pair:
                local.pair = next(pairs)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced function for the duration of the block."""
        saved = []
        try:
            for level, table in ((False, RUN_LEVEL), (True, PAIR_LEVEL)):
                for module_name, attr, span_name in table:
                    module = self._modules[module_name]
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(span_name, original, level))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def root(self, fn, *args):
        """Run ``fn`` inside the run's root span."""
        return self._wrap(ROOT, fn, pair_level=False)(*args)

    def write(self, path):
        origin = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, span_id, parent, pair, converted in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "pair": pair, "name": name,
                    "start_ms": (start - origin) * 1e3, "end_ms": (end - origin) * 1e3,
                    "converted": converted,
                }) + "\n")

    def layer_metrics(self, pairs: int, audio_seconds: float) -> dict:
        """Per-layer metrics of one traced pass over ``pairs`` pairs."""
        total = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        pair_start, pair_end = {}, {}
        converted = 0
        for name, start, end, span_id, parent, pair, conv in self.spans:
            total[name] += end - start
            calls[name] += 1
            converted += conv
            if parent is not None:
                child[parent] += end - start
            if pair is not None:
                pair_start[pair] = min(pair_start.get(pair, start), start)
                if name == PAIR_END:
                    pair_end[pair] = end
        self_time = defaultdict(float)
        for name, start, end, span_id, _, _, _ in self.spans:
            self_time[name] += end - start - child[span_id]

        per_10s = 1e3 * 10.0 / audio_seconds
        files = 2 * pairs
        pair_ms = sorted(1e3 * (pair_end[p] - pair_start[p]) for p in pair_end)
        deciles = statistics.quantiles(pair_ms, n=10)
        wall = total[ROOT]

        out = {metric: total[span] * per_10s for metric, span in MS_PER_10S.items()}
        out.update({metric: self_time[span] * per_10s for metric, span in SELF_MS_PER_10S.items()})
        out.update({
            "audio_io.resample.calls_converted": converted,
            "features.summarize.ms_per_file": 1e3 * total["features.summarize"] / files,
            "features.frame_signal.calls_per_file": calls["features.frame_signal"] / files,
            "features.filterbank_builds_per_file": (
                calls["features.mel_filterbank"] + calls["features.chroma_filterbank"]) / files,
            "similarity.score_pair.ms_per_pair":
                1e3 * total[PAIR_END] / max(calls[PAIR_END], 1),
            "pipeline.aggregate.ms": 1e3 * total["pipeline.aggregate"],
            "pipeline.write_reports.ms": 1e3 * total["pipeline.write_reports"],
            "pipeline.discover_pairs.ms": 1e3 * total["pipeline.discover_pairs"],
            "embeddings.load_backend.ms": 1e3 * total["embeddings.load_backend"],
            "embeddings.embed.us_per_call":
                1e6 * total["embeddings.embed"] / max(calls["embeddings.embed"], 1),
            "pipeline.pair_ms.p50": statistics.median(pair_ms),
            "pipeline.pair_ms.p90": deciles[8],
            "pipeline.concurrency":
                sum(pair_ms) / (1e3 * total["pipeline.evaluate_corpus"]),
            "cli.main.self_ms": 1e3 * self_time[ROOT],
            "audio_io.resample.wall_share": total["audio_io.resample"] / wall,
            "features.f0_contour.wall_share": total["features.f0_contour"] / wall,
        })
        return out

    def wall_shares(self) -> dict:
        """Summed span time of every traced name over the root span's time."""
        total = defaultdict(float)
        for name, start, end, *_ in self.spans:
            total[name] += end - start
        wall = total.pop(ROOT)
        return {name: t / wall for name, t in total.items()}
