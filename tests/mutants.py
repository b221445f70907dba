"""Named mutants: known defects that Tier-1 must catch.

``MUTANTS`` maps a name to ``(file, old, new)``: a source file relative to
``src/``, a text that occurs exactly once in it, and the text that replaces
it. ``tests/test_mutants.py`` applies each mutant to its own copy of
``src/`` and requires the golden reports to fail against that copy. A
mutant that survives is a finding: it stays in the list, and the finding is
logged until a test catches it.

Tier-1 runs the ``TIER1`` mutants only, to stay within its time budget;
``python tests/test_mutants.py`` runs every mutant.
"""

MUTANTS = {
    # The resampler length written back as the floor: the golden pair
    # spk4_06 resamples to 25 599 samples, one frame short.
    "resample_length_floor": (
        "cloneval/_kernels.py",
        "n_out = -(-(len(x) * outputs) // step)",
        "n_out = (len(x) * outputs) // step",
    ),
    # The contour frames without the frame after each floor: the summaries
    # of the 563-frame golden pair long_07 interpolate between frames the
    # pass did not compute next to each other.
    "contour_frames_without_floor_plus_one": (
        "cloneval/features.py",
        "    read[np.minimum(floors + 1, n_frames - 1)] = True\n",
        "",
    ),
    # RMS's chunk view started one hop late: every frame's sum of squares
    # reads the chunks of the frame after it.
    "rms_chunks_one_hop_late": (
        "cloneval/features.py",
        "frames[0] * HOP",
        "(frames[0] + 1) * HOP",
    ),
    # The tempogram's windows view started one frame late: every frame's
    # local autocorrelation reads the window of the frame after it.
    "tempogram_windows_one_frame_late": (
        "cloneval/features.py",
        "-(TEMPOGRAM_WIN // 2)",
        "1 - TEMPOGRAM_WIN // 2",
    ),
    # The chunk union of YIN frames one chunk short per frame: each frame's
    # last correlation chunk and last energy chunk are not read.
    "cover_marks_one_short": (
        "cloneval/_kernels.py",
        "np.arange(width))",
        "np.arange(width - 1))",
    ),
    # Each YIN frame placed one chunk late in its gathered stack.
    "cover_places_one_late": (
        "cloneval/_kernels.py",
        "np.searchsorted(covered, offsets)",
        "np.searchsorted(covered, offsets) + 1",
    ),
}

TIER1 = ("resample_length_floor", "contour_frames_without_floor_plus_one",
         "rms_chunks_one_hop_late")
