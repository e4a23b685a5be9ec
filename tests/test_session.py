"""The suite's own pytest configuration: a failing test is reported as a
failure and never ends the session early."""


def test_failing_generated_case_leaves_later_tests_running(pytester, request):
    # Hypothesis reports a failing generated case by importing
    # hypothesis.extra._patching, whose libcst import raises a
    # DeprecationWarning; under this suite's warning filters it must not
    # become an INTERNALERROR that stops the session (exit 3).
    filters = request.config.getini("filterwarnings")
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(test_pair="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_generated_case_fails(x):
            assert x < 0

        def test_later_test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert result.ret == 1
