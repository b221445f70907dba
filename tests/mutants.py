"""Named mutants: known defects that Tier-1 must catch.

``MUTANTS`` maps a name to a ``Mutant``: a source file relative to
``src/``, a text that occurs exactly once in it, the text that replaces it,
and the ids of the tests, relative to ``tests/``, that must each fail
against it; by default the golden reports. ``tests/test_mutants.py``
applies each mutant to its own copy of ``src/`` and runs its tests against
that copy. A mutant that survives is a finding: it stays in the list, and
the finding is logged until a test catches it.

Tier-1 runs the ``TIER1`` mutants only, to stay within its time budget;
``python tests/test_mutants.py`` runs every mutant.
"""

from typing import NamedTuple

GOLDEN = ("test_golden.py::test_reports_match_golden",)


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    tests: tuple = GOLDEN


MUTANTS = {
    # The resampler length written back as the floor: the golden pair
    # spk4_06 resamples to 25 599 samples, one frame short.
    "resample_length_floor": Mutant(
        "cloneval/_kernels.py",
        "n_out = -(-(len(x) * outputs) // step)",
        "n_out = (len(x) * outputs) // step",
    ),
    # The contour frames without the frame after each floor: the summaries
    # of the 563-frame golden pair long_07 interpolate between frames the
    # pass did not compute next to each other.
    "contour_frames_without_floor_plus_one": Mutant(
        "cloneval/features.py",
        "    read[np.minimum(floors + 1, n_frames - 1)] = True\n",
        "",
    ),
    # RMS's chunk view started one hop late: every frame's sum of squares
    # reads the chunks of the frame after it.
    "rms_chunks_one_hop_late": Mutant(
        "cloneval/features.py",
        "frames[0] * HOP",
        "(frames[0] + 1) * HOP",
    ),
    # The tempogram's windows view started one frame late: every frame's
    # local autocorrelation reads the window of the frame after it.
    "tempogram_windows_one_frame_late": Mutant(
        "cloneval/features.py",
        "-(TEMPOGRAM_WIN // 2)",
        "1 - TEMPOGRAM_WIN // 2",
    ),
    # The chunk union of YIN frames one chunk short per frame: each frame's
    # last correlation chunk and last energy chunk are not read.
    "cover_marks_one_short": Mutant(
        "cloneval/_kernels.py",
        "np.arange(width))",
        "np.arange(width - 1))",
    ),
    # Each YIN frame placed one chunk late in its gathered stack.
    "cover_places_one_late": Mutant(
        "cloneval/_kernels.py",
        "np.searchsorted(covered, offsets)",
        "np.searchsorted(covered, offsets) + 1",
    ),
    # The old floor: a clip of 2 to 512 samples is reflected again and
    # again into a made-up period. No golden file is that short.
    "reflect_floor_of_two": Mutant(
        "cloneval/features.py",
        "MIN_SAMPLES = N_FFT // 2 + 1",
        "MIN_SAMPLES = 2",
        ("test_features.py::TestStft::test_clips_too_short_to_reflect_are_rejected",),
    ),
    # Zeros in place of the reflected edges: every file's edge frames.
    "reflect_pad_zeros": Mutant(
        "cloneval/features.py",
        'mode="reflect"',
        'mode="constant"',
    ),
    # Scores rounded to five decimals before they are written and averaged.
    "quantize_five_decimals": Mutant(
        "cloneval/pipeline.py",
        "return round(value, 6)",
        "return round(value, 5)",
    ),
    # The emotion average weighted by each label's pair count. The golden
    # corpus has one label, where both weightings agree.
    "emotion_average_weighted_by_counts": Mutant(
        "cloneval/pipeline.py",
        "float(np.mean([by_emotion[label][m] for label in known]))",
        "float(np.average([by_emotion[label][m] for label in known],"
        " weights=[counts[label] for label in known]))",
        ("test_pipeline.py::TestAggregate::test_emotion_average_weighs_each_label_once",),
    ),
    # summary.json in insertion order. The golden reports compare scores, not
    # bytes, under another numpy than the golden one.
    "summary_without_sort_keys": Mutant(
        "cloneval/pipeline.py",
        "json.dump(payload, fh, indent=2, sort_keys=True)",
        "json.dump(payload, fh, indent=2)",
        ("test_pipeline.py::TestWriteReports::test_summary_keys_are_sorted_at_every_level",),
    ),
    # ``embed`` holds each vector to its own length, so no length differs.
    "embed_checks_each_vector_against_itself": Mutant(
        "cloneval/cli.py",
        "check_dimension(backend.dimension, vector)",
        "check_dimension(len(vector), vector)",
        ("test_cli.py::TestEmbedCommand::test_dimension_mismatch_writes_no_manifest",),
    ),
}

TIER1 = ("resample_length_floor", "contour_frames_without_floor_plus_one",
         "rms_chunks_one_hop_late")
