"""Positive + negative cases for every catlint rule.

Violating code lives in string literals so linting the test tree itself
stays clean; each rule gets at least one source that must trigger it and
one near-miss that must not.
"""

import textwrap

from repro.analysis.engine import lint_source

LIB = "src/repro/heating/example.py"     # library, not a hot path
HOT = "src/repro/solvers/example.py"     # dtype-discipline subtree
TEST = "tests/test_example.py"           # exempt from guarded-math rules


def codes(source, path=LIB):
    return [f.rule for f in lint_source(textwrap.dedent(source), path=path)]


class TestUnguardedLogCAT001:
    def test_positive(self):
        src = """
        import numpy as np
        def f(x):
            return np.log(x)
        """
        assert "CAT001" in codes(src)

    def test_negative_clamped(self):
        src = """
        import numpy as np
        def f(x):
            return np.log(np.maximum(x, 1e-300))
        """
        assert "CAT001" not in codes(src)

    def test_negative_resolved_local_name(self):
        # the scope resolver sees every assignment to y is guarded
        src = """
        import numpy as np
        def f(x):
            y = np.abs(x) + 1e-12
            return np.log(y)
        """
        assert "CAT001" not in codes(src)

    def test_negative_positive_constant_import(self):
        src = """
        import numpy as np
        from repro.constants import K_BOLTZMANN
        def f(T):
            return np.log(K_BOLTZMANN * np.maximum(T, 1.0))
        """
        assert "CAT001" not in codes(src)

    def test_exempt_in_tests(self):
        src = """
        import numpy as np
        def f(x):
            return np.log(x)
        """
        assert codes(src, path=TEST) == []


class TestUnguardedSqrtCAT002:
    def test_positive(self):
        src = """
        import numpy as np
        def f(e):
            return np.sqrt(e)
        """
        assert "CAT002" in codes(src)

    def test_negative_abs(self):
        src = """
        import numpy as np
        def f(e):
            return np.sqrt(np.abs(e))
        """
        assert "CAT002" not in codes(src)

    def test_negative_square(self):
        src = """
        import numpy as np
        def f(u, v):
            return np.sqrt(u * u + v * v)
        """
        assert "CAT002" not in codes(src)


class TestDivByDifferenceCAT003:
    def test_positive(self):
        src = """
        def f(a, b):
            return 1.0 / (a - b)
        """
        assert "CAT003" in codes(src)

    def test_negative_epsilon(self):
        src = """
        def f(a, b):
            return 1.0 / (a - b + 1e-12)
        """
        assert "CAT003" not in codes(src)

    def test_negative_clamped(self):
        src = """
        import numpy as np
        def f(a, b):
            return 1.0 / np.maximum(a - b, 1e-12)
        """
        assert "CAT003" not in codes(src)


class TestUnguardedExpCAT004:
    def test_positive_hot_path(self):
        src = """
        import numpy as np
        def rate(theta, T):
            return np.exp(theta / T)
        """
        assert "CAT004" in codes(src, path=HOT)

    def test_negative_outside_hot_path(self):
        src = """
        import numpy as np
        def rate(theta, T):
            return np.exp(theta / T)
        """
        assert "CAT004" not in codes(src, path=LIB)

    def test_negative_clipped(self):
        src = """
        import numpy as np
        def rate(theta, T):
            return np.exp(np.clip(theta / T, -460.0, 460.0))
        """
        assert "CAT004" not in codes(src, path=HOT)

    def test_negative_safe_exp(self):
        src = """
        from repro.numerics.safety import safe_exp
        def rate(theta, T):
            return safe_exp(theta / T)
        """
        assert "CAT004" not in codes(src, path=HOT)

    def test_negative_negated_positive(self):
        src = """
        import numpy as np
        def rate(theta, T):
            return np.exp(-np.abs(theta) / np.maximum(T, 1.0))
        """
        assert "CAT004" not in codes(src, path=HOT)

    def test_negative_negative_coefficient(self):
        src = """
        import numpy as np
        def omega(t_star):
            t = np.maximum(t_star, 1e-3)
            return 0.193 * np.exp(-0.47635 * t)
        """
        assert "CAT004" not in codes(src, path=HOT)

    def test_negative_clipped_name(self):
        src = """
        import numpy as np
        def cv(th, T):
            x = np.clip(th / T, 1e-12, 250.0)
            return np.exp(x)
        """
        assert "CAT004" not in codes(src, path=HOT)

    def test_positive_unclipped_name(self):
        src = """
        import numpy as np
        def cv(th, T):
            x = th / T
            return np.exp(x)
        """
        assert "CAT004" in codes(src, path=HOT)


class TestFloatEqualityCAT010:
    def test_positive(self):
        src = """
        def f(x):
            return x == 0.5
        """
        assert "CAT010" in codes(src)

    def test_positive_noteq(self):
        src = """
        def f(x):
            return x != 1.5
        """
        assert "CAT010" in codes(src)

    def test_negative_int_literal(self):
        src = """
        def f(x):
            return x == 5
        """
        assert "CAT010" not in codes(src)

    def test_negative_ordering(self):
        src = """
        def f(x):
            return x < 0.5
        """
        assert "CAT010" not in codes(src)

    def test_applies_in_tests_too(self):
        src = """
        def f(x):
            return x == 0.5
        """
        assert "CAT010" in codes(src, path=TEST)


class TestMutableDefaultCAT011:
    def test_positive_dict(self):
        src = """
        def f(x, cache={}):
            return cache
        """
        assert "CAT011" in codes(src)

    def test_positive_np_zeros(self):
        src = """
        import numpy as np
        def f(x, buf=np.zeros(3)):
            return buf
        """
        assert "CAT011" in codes(src)

    def test_negative_none(self):
        src = """
        def f(x, cache=None):
            return cache if cache is not None else {}
        """
        assert "CAT011" not in codes(src)


class TestOverbroadExceptCAT012:
    def test_positive_bare(self):
        src = """
        def f(g):
            try:
                return g()
            except:
                return None
        """
        found = lint_source(textwrap.dedent(src), path=LIB)
        cat12 = [f for f in found if f.rule == "CAT012"]
        assert cat12 and cat12[0].severity == "error"

    def test_positive_broad_exception_is_warning(self):
        src = """
        def f(g):
            try:
                return g()
            except Exception:
                return None
        """
        found = lint_source(textwrap.dedent(src), path=LIB)
        cat12 = [f for f in found if f.rule == "CAT012"]
        assert cat12 and cat12[0].severity == "warning"

    def test_negative_reraise(self):
        src = """
        def f(g):
            try:
                return g()
            except Exception:
                raise
        """
        assert "CAT012" not in codes(src)

    def test_negative_concrete(self):
        src = """
        def f(g):
            try:
                return g()
            except ValueError:
                return None
        """
        assert "CAT012" not in codes(src)


class TestFloat32DowncastCAT013:
    def test_positive_attribute(self):
        src = """
        import numpy as np
        def f(x):
            return np.asarray(x, dtype=np.float32)
        """
        assert "CAT013" in codes(src)

    def test_positive_string_dtype(self):
        src = """
        import numpy as np
        def f(x):
            return x.astype("float32")
        """
        assert "CAT013" in codes(src)

    def test_negative_float64(self):
        src = """
        import numpy as np
        def f(x):
            return np.asarray(x, dtype=np.float64)
        """
        assert "CAT013" not in codes(src)

    def test_negative_plain_string(self):
        # "float32" outside a dtype/astype position is just a string
        src = """
        def f():
            return "float32"
        """
        assert "CAT013" not in codes(src)


class TestAssertInLibraryCAT015:
    def test_positive(self):
        src = """
        def f(x):
            assert x > 0
            return x
        """
        assert "CAT015" in codes(src)

    def test_exempt_in_tests(self):
        src = """
        def f(x):
            assert x > 0
            return x
        """
        assert "CAT015" not in codes(src, path=TEST)


class TestEmptyUninitializedCAT020:
    def test_positive_never_filled(self):
        src = """
        import numpy as np
        def f(n):
            a = np.empty(n)
            return a
        """
        assert "CAT020" in codes(src)

    def test_negative_element_store(self):
        src = """
        import numpy as np
        def f(n):
            a = np.empty(n)
            a[:] = 0.0
            return a
        """
        assert "CAT020" not in codes(src)

    def test_negative_out_kwarg(self):
        src = """
        import numpy as np
        def f(x):
            a = np.empty(x.shape)
            np.add(x, 1.0, out=a)
            return a
        """
        assert "CAT020" not in codes(src)


class TestMissingDtypeCAT021:
    def test_positive_hot_path(self):
        src = """
        import numpy as np
        def f(n):
            a = np.zeros(n)
            a[:] = 1.0
            return a
        """
        assert "CAT021" in codes(src, path=HOT)

    def test_negative_with_dtype(self):
        src = """
        import numpy as np
        def f(n):
            a = np.zeros(n, dtype=np.float64)
            a[:] = 1.0
            return a
        """
        assert "CAT021" not in codes(src, path=HOT)

    def test_negative_off_hot_path(self):
        src = """
        import numpy as np
        def f(n):
            a = np.zeros(n)
            a[:] = 1.0
            return a
        """
        assert "CAT021" not in codes(src, path=LIB)


class TestSetOrderReductionCAT030:
    def test_positive_for_loop(self):
        src = """
        def f():
            out = 0.0
            for x in {1.0, 2.0, 3.0}:
                out += x
            return out
        """
        assert "CAT030" in codes(src)

    def test_positive_sum(self):
        src = """
        def f(names):
            return sum(set(names))
        """
        assert "CAT030" in codes(src)

    def test_negative_sorted(self):
        src = """
        def f(names):
            out = 0.0
            for x in sorted(set(names)):
                out += x
            return out
        """
        assert "CAT030" not in codes(src)


class TestEngineBasics:
    def test_syntax_error_reported_as_cat999(self):
        found = lint_source("def f(:\n", path=LIB)
        assert [f.rule for f in found] == ["CAT999"]
        assert found[0].severity == "error"

    def test_select_restricts_rules(self):
        src = textwrap.dedent("""
        import numpy as np
        def f(x):
            assert x > 0
            return np.log(x)
        """)
        only_log = lint_source(src, path=LIB, select=["CAT001"])
        assert {f.rule for f in only_log} == {"CAT001"}

    def test_findings_sorted_and_located(self):
        src = textwrap.dedent("""
        import numpy as np
        def f(x):
            return np.log(x)
        """)
        found = lint_source(src, path=LIB)
        assert found[0].path == LIB
        assert found[0].line == 4
        assert "np.log" in found[0].source_line

    def test_rule_catalog_has_ten_plus_rules(self):
        from repro.analysis.engine import RULES
        assert len(RULES) >= 10
        assert all(code.startswith("CAT") for code in RULES)
        assert sum(1 for code in RULES if code.startswith("CAT")) >= 10
