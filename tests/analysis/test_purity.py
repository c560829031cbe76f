"""Trial-purity pass: reachability, mutation detection, suppression."""

from __future__ import annotations

from repro.analysis import TrialPurityRule, run_lint


def lint(tree, **kwargs):
    return run_lint([tree], rules=[TrialPurityRule(**kwargs)])


RUNNER_STUB = """
    _BODY_FACTORIES = {}

    def body_factory(kind):
        def decorate(factory):
            _BODY_FACTORIES[kind] = factory
            return factory
        return decorate

    def build_body(spec):
        return _BODY_FACTORIES[spec.kind](spec)

    def execute_trial(spec):
        body = build_body(spec)
        return body(spec)
"""


class TestReachability:
    def test_decorated_factory_mutating_state_flagged(self, make_tree):
        tree = make_tree({
            "core/runner.py": RUNNER_STUB,
            "workloads/w.py": """
                from repro.core.runner import body_factory

                CACHE = {}

                @body_factory("w")
                def make_body(spec):
                    def body(kernel):
                        CACHE[spec.kind] = kernel
                        return kernel
                    return body
            """,
        })
        report = lint(tree, entry_points=("repro.core.runner.execute_trial",
                                          "repro.core.runner.build_body"))
        rules = [f.rule for f in report.findings]
        assert rules == ["purity/module-state-mutation"]
        finding = report.findings[0]
        assert finding.symbol == "make_body.body"
        assert "CACHE" in finding.message

    def test_transitive_callee_flagged(self, make_tree):
        tree = make_tree({
            "core/runner.py": RUNNER_STUB,
            "workloads/helper.py": """
                SEEN = []

                def record(item):
                    SEEN.append(item)
            """,
            "workloads/w.py": """
                from repro.core.runner import body_factory
                from repro.workloads.helper import record

                @body_factory("w")
                def make_body(spec):
                    record(spec)
                    return lambda kernel: kernel
            """,
        })
        report = lint(tree, entry_points=("repro.core.runner.execute_trial",
                                          "repro.core.runner.build_body"))
        assert [f.rule for f in report.findings] == [
            "purity/module-state-mutation"]
        assert report.findings[0].symbol == "record"

    def test_unreachable_mutation_not_flagged(self, make_tree):
        tree = make_tree({
            "core/runner.py": RUNNER_STUB,
            "workloads/w.py": """
                REGISTRY = {}

                def register(name, fn):
                    REGISTRY[name] = fn
            """,
        })
        report = lint(tree, entry_points=("repro.core.runner.execute_trial",
                                          "repro.core.runner.build_body"))
        # register() is import-time plumbing, never on the trial path.
        assert report.findings == []

    def test_decorator_call_is_not_a_trial_path_call(self, make_tree):
        # Registration happens at def time; the factory registry write
        # inside body_factory.decorate must not be attributed to the
        # decorated entry function's call path.
        tree = make_tree({"core/runner.py": RUNNER_STUB + """
    @body_factory("noop")
    def _noop_body(spec):
        return lambda kernel: kernel
"""})
        report = lint(tree, entry_points=("repro.core.runner.execute_trial",
                                          "repro.core.runner.build_body"))
        assert report.findings == []


    def test_body_built_through_a_classmethod_is_reachable(self, make_tree):
        # the FaaS factory builds its launcher with an alternate
        # constructor, never calling the class directly: the launcher's
        # methods and the body closure they return are still trial path
        tree = make_tree({
            "core/runner.py": RUNNER_STUB,
            "core/launcher.py": """
                CACHE = {}

                class Launcher:
                    def __init__(self, language):
                        self.language = language

                    @classmethod
                    def for_language(cls, language):
                        return cls(language)

                    def launch(self, name):
                        def body(kernel):
                            CACHE[name] = kernel
                            return kernel
                        return body
            """,
            "workloads/w.py": """
                from repro.core.runner import body_factory

                @body_factory("w")
                def make_body(spec):
                    from repro.core.launcher import Launcher
                    return Launcher.for_language(spec.kind).launch("w")
            """,
        })
        report = lint(tree, entry_points=("repro.core.runner.execute_trial",
                                          "repro.core.runner.build_body"))
        assert [(f.rule, f.symbol) for f in report.findings] == [
            ("purity/module-state-mutation", "Launcher.launch.body")]


class TestMutationForms:
    def test_global_statement_flagged(self, make_tree):
        tree = make_tree({"core/runner.py": """
            counter = 0

            def execute_trial(spec):
                global counter
                counter += 1
                return counter
        """})
        report = lint(tree, entry_points=("repro.core.runner.execute_trial",))
        assert "purity/global-write" in [f.rule for f in report.findings]

    def test_mutating_method_call_flagged(self, make_tree):
        tree = make_tree({"core/runner.py": """
            HISTORY = []

            def execute_trial(spec):
                HISTORY.append(spec)
                return spec
        """})
        report = lint(tree, entry_points=("repro.core.runner.execute_trial",))
        assert [f.rule for f in report.findings] == [
            "purity/module-state-mutation"]

    def test_local_mutation_allowed(self, make_tree):
        tree = make_tree({"core/runner.py": """
            def execute_trial(spec):
                cache = {}
                cache[spec] = 1
                items = []
                items.append(spec)
                return cache, items
        """})
        report = lint(tree, entry_points=("repro.core.runner.execute_trial",))
        assert report.findings == []

    def test_nonspec_global_read_is_warning(self, make_tree):
        tree = make_tree({"core/runner.py": """
            mode = "fast"

            def execute_trial(spec):
                return mode
        """})
        report = lint(tree, entry_points=("repro.core.runner.execute_trial",))
        assert [f.rule for f in report.findings] == ["purity/nonspec-global"]
        assert report.findings[0].severity.value == "warning"

    def test_constant_read_allowed(self, make_tree):
        tree = make_tree({"core/runner.py": """
            PAPER_TRIALS = 10

            def execute_trial(spec):
                return PAPER_TRIALS
        """})
        report = lint(tree, entry_points=("repro.core.runner.execute_trial",))
        assert report.findings == []

    def test_lru_cache_on_trial_path_is_warning(self, make_tree):
        tree = make_tree({"core/runner.py": """
            from functools import lru_cache

            @lru_cache(maxsize=8)
            def build_body(spec):
                return spec

            def execute_trial(spec):
                return build_body(spec)
        """})
        report = lint(tree, entry_points=("repro.core.runner.execute_trial",))
        assert [f.rule for f in report.findings] == ["purity/memoized"]
        assert report.findings[0].severity.value == "warning"


class TestSuppression:
    def test_pragma_suppresses_mutation(self, make_tree):
        tree = make_tree({"core/runner.py": """
            MEMO = {}

            def execute_trial(spec):
                MEMO[spec] = 1  # confbench: allow[purity]
                return MEMO[spec]
        """})
        report = lint(tree, entry_points=("repro.core.runner.execute_trial",))
        assert report.findings == []
