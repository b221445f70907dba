"""Named mutants: known defects that Tier-1 must catch.

``MUTANTS`` maps a name to a ``Mutant``: a source file relative to
``src/``, a text that occurs exactly once in it, the text that replaces it,
and the ids of the tests, relative to ``tests/``, that must each fail
against it; by default the golden reports. ``tests/test_mutants.py``
applies each mutant to its own copy of ``src/`` and runs its tests against
that copy. A mutant that survives is a finding: it stays in the list, and
the finding is logged until a test catches it.

Tier-1 runs the ``TIER1`` mutants only, to stay within its time budget,
and checks that every mutant still applies; ``python tests/test_mutants.py``
runs every mutant.
"""

from typing import NamedTuple

GOLDEN = ("test_golden.py::test_reports_match_golden",)
_CHANNEL_AVERAGE = "test_audio_io.py::TestDecodeWav::test_channels_average_like_converted_columns"


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
        "cloneval/embeddings.py",
        "len(vector) != backend.dimension",
        "len(vector) != len(vector)",
        ("test_cli.py::TestEmbedCommand::test_dimension_mismatch_writes_no_manifest",
         "test_cli.py::TestEvaluate::test_model_dimension_mismatch_fails_the_same_pair",
         "test_embeddings.py::TestEmbed::test_other_length_is_a_dimension_mismatch"),
    ),
    # The resampler's Kaiser window nudged: every resampled golden file
    # moves, and so does every output of the direct FIR oracle.
    "kaiser_beta_nudged": Mutant(
        "cloneval/_kernels.py",
        "_KAISER_BETA = 8.6",
        "_KAISER_BETA = 8.5",
        GOLDEN + ("test_audio_io.py::TestResample::test_matches_reference_fir",),
    ),
    # Frame blocks filled to _BLOCK_ROWS, the rest left to the last one: a
    # 129-frame run splits 128 + 1. The matrix summaries' block sums move
    # in their last bits only, below report precision, so the golden
    # reports cannot see it.
    "row_blocks_unbalanced": Mutant(
        "cloneval/features.py",
        "edges = [n * k // count for k in range(count + 1)]",
        "edges = [min(n, _BLOCK_ROWS * k) for k in range(count + 1)]",
        ("test_features.py::test_row_blocks_are_balanced",),
    ),
    # YIN takes a dip below 0.11 as a period.
    "yin_threshold_nudged": Mutant(
        "cloneval/features.py",
        "YIN_THRESHOLD = 0.1\n",
        "YIN_THRESHOLD = 0.11\n",
        GOLDEN + ("test_kernels.py::test_f0_trough_search_matches_oracle_on_crafted_cmnd",),
    ),
    # Flatness floors each power bin ten times higher.
    "flatness_floor_nudged": Mutant(
        "cloneval/features.py",
        "_FLATNESS_FLOOR = 1e-10",
        "_FLATNESS_FLOOR = 1e-9",
        GOLDEN + ("test_features.py::TestInvariants::test_scale_covariance",),
    ),
    # The rolloff holds 86% of the magnitude, not 85%.
    "rolloff_fraction_nudged": Mutant(
        "cloneval/features.py",
        "ROLLOFF_FRACTION = 0.85",
        "ROLLOFF_FRACTION = 0.86",
        GOLDEN + ("test_features.py::TestSpectralScalars::test_rolloff_flat_spectrum",),
    ),
    # A frame's channels summed, not averaged: the golden corpus's stereo
    # PCM24 and float32 files double their gain, which moves the tempogram.
    "channel_sum_divided_by_scale_alone": Mutant(
        "cloneval/audio_io.py",
        "samples /= channels * (1 if is_float else _INT_SCALES[bits])",
        "samples /= 1 if is_float else _INT_SCALES[bits]",
        GOLDEN + (_CHANNEL_AVERAGE,),
    ),
    # The last channel left out of each frame's sum.
    "channel_sum_skips_the_last_channel": Mutant(
        "cloneval/audio_io.py",
        "for channel in range(1, channels):",
        "for channel in range(1, channels - 1):",
        GOLDEN + (_CHANNEL_AVERAGE,),
    ),
    # decode_wav does not tell the faults of a float file apart: NaN and Inf
    # codes and a channel sum past the float64 range both reach the caller
    # as the buffer's "audio holds N non-finite samples".
    "decode_float_check_skipped": Mutant(
        "cloneval/audio_io.py",
        "    except FormatError:\n",
        "    except RateError:\n",
        ("test_audio_io.py::TestDecodeWav::test_non_finite_float_samples_rejected",
         "test_audio_io.py::TestDecodeWav::test_non_finite_float64_samples_rejected",
         "test_audio_io.py::TestDecodeWav::test_channel_sum_past_float64_range_rejected",
         "test_cli.py::TestEvaluate::test_channel_sum_overflow_fails_its_pair_at_decode"),
    ),
    # The buffer keeps NaN and infinite samples: a float file's bad codes
    # decode, and an overflowed resampler output reaches the features.
    "audio_buffer_accepts_non_finite_samples": Mutant(
        "cloneval/audio_io.py",
        "        if bad:\n            raise FormatError(f\"audio holds",
        "        if False:\n            raise FormatError(f\"audio holds",
        ("test_audio_io.py::TestAudioBuffer::test_non_finite_samples_are_rejected",
         "test_audio_io.py::TestDecodeWav::test_non_finite_float_samples_rejected",
         "test_audio_io.py::TestResample::test_overflowing_output_is_a_format_error",
         "test_features.py::test_non_finite_samples_are_rejected",
         "test_embeddings.py::TestEmbed::test_non_finite_samples_are_rejected",
         "test_cli.py::TestEvaluate::test_overflowing_resample_fails_its_pair_alone",
         "test_cli.py::TestEmbedCommand::test_error_names_the_file_that_stopped_it"),
    ),
    # The shared JSON reader hands a top-level array to the entry rules.
    "json_reader_accepts_non_object": Mutant(
        "cloneval/embeddings.py",
        "if not isinstance(raw, tuple):",
        "if False:",
        ("test_embeddings.py::test_json_readers_share_one_front_half",),
    ),
    # summarize keeps a summary that overflowed: the inf reaches the scoring
    # of its pair.
    "summarize_keeps_non_finite": Mutant(
        "cloneval/features.py",
        "    if not np.all(np.isfinite(values)):\n",
        "    if False:\n",
        ("test_features.py::test_overflowing_power_is_rejected",
         "test_cli.py::TestEvaluate::test_overflowing_power_fails_its_pair_alone"),
    ),
    # The overwrite check lists each input directory again, apart from the
    # listing that pairing reads.
    "evaluate_lists_directories_twice": Mutant(
        "cloneval/cli.py",
        "        taken += [(pair[side], f\"a WAV in {flag}\") for pair in pairs]\n"
        "        taken += [(Path(directory) / name, f\"a WAV in {flag}\") for name in unmatched]\n",
        "        taken += [(path, f\"a WAV in {flag}\") for path in list_wavs(directory).values()]\n",
        ("test_cli.py::TestEvaluate::test_each_input_directory_is_listed_once",),
    ),
    # Every exception a file raises fails only its pair, a bug's included.
    "file_failure_absorbs_any_exception": Mutant(
        "cloneval/pipeline.py",
        "    except (ClonevalError, OSError) as exc:\n",
        "    except Exception as exc:\n",
        ("test_cli.py::TestEvaluate::test_a_bug_stops_the_run_and_keeps_the_reports",),
    ),
    # A file that fails to resample is recorded as failing to decode.
    "file_outcome_wrong_stage": Mutant(
        "cloneval/pipeline.py",
        '        stage = "resample"\n',
        '        stage = "decode"\n',
        ("test_pipeline.py::TestFileOutcome::test_a_failing_step_is_named_in_its_files_outcome",),
    ),
    # The runtime's own error leaves the model backend as it is: a bug to
    # evaluate, and a traceback from embed.
    "model_run_error_unwrapped": Mutant(
        "cloneval/embeddings.py",
        "except Exception as exc:  # the runtime raises types of its own",
        "except ModelRunError as exc:",
        ("test_embeddings.py::TestEmbed::test_model_run_failure_is_a_model_run_error",
         "test_cli.py::TestEvaluate::test_model_run_failure_fails_its_pair",
         "test_cli.py::TestEmbedCommand::test_model_run_failure_writes_no_manifest"),
    ),
}

TIER1 = ("resample_length_floor", "contour_frames_without_floor_plus_one",
         "rms_chunks_one_hop_late")
