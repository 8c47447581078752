"""The Loopapalooza driver: compile -> classify -> instrument -> profile ->
evaluate.

This is the library's main entry point::

    from repro.core import Loopapalooza, LPConfig

    lp = Loopapalooza(minic_source, name="kernel")
    result = lp.evaluate(LPConfig("helix", reduc=1, dep=1, fn=2))
    print(result.speedup, result.coverage)

One profiling run per program; every configuration is evaluated analytically
from the recorded profile (see DESIGN.md).
"""

from __future__ import annotations

from ..errors import FrameworkError
from ..frontend.codegen import compile_source
from ..interp.interpreter import Interpreter
from ..runtime.recorder import ProfilingRuntime
from ..settings import current
from .config import LPConfig
from .evaluator import ProfileCache, evaluate_config
from .instrument import build_instrumentation
from .static_info import ModuleStaticInfo, StaticInfoView


class Loopapalooza:
    """Owns one program's compilation artifacts and execution profile.

    ``store`` (a :class:`~repro.runtime.profile_store.ProfileStore`) makes
    :meth:`profile` consult the persistent profile cache first: on a warm
    start the instrumented interpreter run is skipped entirely and the
    recorded profile, program output and static loop classification are
    restored from disk. The store keys entries on the source of the code
    that produced them, so the stored classification is the one this code
    would compute.

    ``module``, ``static_info`` and ``instrumentation`` are built on first
    access. A warm start never needs them: evaluation and the census read
    :meth:`classification`, which is then the stored one.
    """

    def __init__(self, source, name="program", fuel=200_000_000,
                 verify_each=False, inline=False, store=None, backend=None,
                 transform=None):
        self.name = name
        self.fuel = fuel
        self.source = source
        self.inline = inline
        self.store = store
        #: Interpreter backend ("vec" / "jit" / "closure"); ``None`` follows the
        #: ``REPRO_NO_JIT`` environment contract.
        self.backend = backend
        if transform is None:
            transform = current().transform
        #: Structural-transform pipeline flag (fission/peel/fusion); part of
        #: the profile-store key because it changes the loop population.
        self.transform = bool(transform)
        self.verify_each = verify_each
        self._module = None
        self._static_info = None
        self._instrumentation = None
        self._stored_loops = None  # StaticInfoView of a warm start
        self._profile = None
        self._cache = None
        self._output = None
        self.profiled_from_cache = False

    # -- compilation (on first access) -------------------------------------------

    @property
    def module(self):
        if self._module is None:
            self._module = compile_source(
                self.source, module_name=self.name,
                verify_each=self.verify_each, inline=self.inline,
                transform=self.transform,
            )
        return self._module

    @property
    def static_info(self):
        """The full :class:`ModuleStaticInfo` of :attr:`module`."""
        if self._static_info is None:
            self._static_info = ModuleStaticInfo(self.module)
        return self._static_info

    @property
    def instrumentation(self):
        if self._instrumentation is None:
            self._instrumentation = build_instrumentation(self.static_info)
        return self._instrumentation

    def classification(self):
        """The static loop classification evaluation reads: the stored
        one (a :class:`StaticInfoView`) after a warm start, else
        :attr:`static_info`."""
        if self._stored_loops is not None:
            return self._stored_loops
        return self.static_info

    # -- profiling ------------------------------------------------------------

    def profile(self):
        """The ProgramProfile: loaded from the profile store on a warm
        start, otherwise measured by one instrumented interpreter run."""
        if self._profile is None:
            if self.store is not None:
                self._load_cached_profile()
        if self._profile is None:
            runtime = ProfilingRuntime(self.name)
            machine = Interpreter(
                self.module, runtime, self.instrumentation, fuel=self.fuel,
                backend=self.backend,
            )
            runtime.attach(machine)
            result = machine.run("main")
            self._profile = runtime.finish(machine.cost, result)
            self._cache = ProfileCache(self._profile)
            self._output = machine.output
            if self.store is not None:
                self.store.store(
                    self.source, self.fuel, self._profile, self.static_info,
                    self._output, inline=self.inline,
                    transform=self.transform,
                )
        return self._profile

    def _load_cached_profile(self):
        cached = self.store.load(self.source, self.fuel, inline=self.inline,
                                 transform=self.transform)
        if cached is None:
            return
        cached.profile.name = self.name
        self._profile = cached.profile
        self._cache = ProfileCache(self._profile)
        self._output = cached.output
        self._stored_loops = StaticInfoView(cached.static_loops)
        self.profiled_from_cache = True

    def run_uninstrumented(self):
        """Plain execution (no callbacks); returns ``(result, cost, output)``.

        Used by tests to confirm instrumentation does not perturb either the
        program's observable behaviour or its dynamic IR instruction count.
        """
        machine = Interpreter(self.module, None, None, fuel=self.fuel,
                              backend=self.backend)
        result = machine.run("main")
        return result, machine.cost, machine.output

    @property
    def total_cost(self):
        return self.profile().total_cost

    @property
    def output(self):
        self.profile()
        return self._output

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, config, innermost_only=False):
        """Evaluate one configuration (string or LPConfig).

        ``innermost_only`` reproduces the related-work baseline (paper §V,
        Kejariwal et al.): no outer-loop or nested parallelization.
        """
        if isinstance(config, str):
            config = LPConfig.parse(config)
        profile = self.profile()
        return evaluate_config(
            profile, self.classification(), config, self._cache,
            innermost_only=innermost_only,
        )

    def evaluate_many(self, configs):
        """Evaluate several configurations sharing all caches."""
        return {
            (c.name if isinstance(c, LPConfig) else c): self.evaluate(c)
            for c in configs
        }

    # -- introspection --------------------------------------------------------

    def loop_ids(self):
        return sorted(self.classification().loops)

    def call_tls_report(self):
        """Function-call/continuation TLS estimate (paper §I extension)."""
        from .call_tls import estimate_call_tls

        return estimate_call_tls(self.profile())

    def census(self):
        """Static dependence census (the Table-I view for this program)."""
        return self.classification().census()

    def describe_loop(self, loop_id):
        """Static classification record for one loop."""
        static = self.classification().loops.get(loop_id)
        if static is None:
            raise FrameworkError(f"unknown loop {loop_id!r}")
        return static

    def __repr__(self):
        return (f"<Loopapalooza {self.name}: "
                f"{len(self.classification().loops)} loops>")
