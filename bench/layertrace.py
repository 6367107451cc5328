"""Per-layer tracing of evplant from outside the program.

While a :class:`Tracer` is installed, the layer functions are replaced by
timing wrappers, by name: in ``evplant.engine``'s namespace (the engine
imports them with ``from ... import``), in ``evplant.scenario``'s namespace
for ``load_config``, and on their classes for ``ParamGrid.interpolate``,
``RainflowCounter.feed`` and ``ScenarioProfile.from_csv``. ``uninstall``
puts every original back, so untraced runs never see a wrapper.

Each wrapper records its span's duration and adds it to the caller's
child time, so a layer's self time is its spans minus their child spans.
Spans are folded into per-layer totals as they close rather than kept.
"""

from __future__ import annotations

from time import perf_counter

# layer -> functions wrapped in evplant.engine's namespace
ENGINE_NAMESPACE = {
    "params": ("load_parameter_set", "load_calendar_coeffs", "load_cycle_coeffs", "load_curve"),
    "ecm": ("step_ecm", "voltage_prediction_coeffs", "rest_voltage"),
    "thermal": ("step_thermal",),
    "aging": ("calendar_step", "cycle_accumulate", "flush_cycles"),
    "charger": (
        "ramp_power",
        "ac_to_dc",
        "dc_to_ac",
        "cc_cv_limit",
        "quantize_setpoint",
        "command_setpoint",
        "achievable_setpoints",
    ),
    "bms": ("gate_current",),
    "engine": ("run_scenario",),
    "report": ("emit_report", "read_trajectory"),
}

# Layers whose self times add up to the traced run_scenario time.
ENGINE_LAYERS = ("params", "ecm", "thermal", "aging", "rainflow", "charger", "bms", "strategy", "engine")
LAYERS = ENGINE_LAYERS + ("report", "scenario")

COUNTS = ("lookups", "repeat_lookups", "gate_results", "gate_trips", "commands", "half_cycles")


class LayerStats:
    __slots__ = ("calls", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Installs layer wrappers into evplant and accumulates per-layer time."""

    def __init__(self) -> None:
        self.stats = {layer: LayerStats() for layer in LAYERS}
        self.counts = dict.fromkeys(COUNTS, 0)
        self._child = [0.0]  # child time of each open span; [0] is the root
        self._last_lookup: dict[int, tuple[float, float]] = {}
        self._saved: list[tuple[object, str, object]] = []

    def take(self) -> dict[str, tuple[int, float]]:
        """Per-layer (calls, self seconds) since the last take; zeroes them.

        Counters in ``counts`` keep accumulating. Grids are reloaded by every
        ``run_scenario``, so the last-lookup memory is dropped here too.
        """
        self._last_lookup.clear()
        taken = {}
        for layer, s in self.stats.items():
            taken[layer] = (s.calls, s.self_s)
            s.calls = 0
            s.self_s = 0.0
        return taken

    def wrap(self, layer: str, fn, on_call=None):
        """Return ``fn`` timed as a span of ``layer``; ``on_call(args, result)`` counts."""
        stats = self.stats[layer]
        child = self._child

        def traced(*args, **kwargs):
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - t0
                stats.self_s += span - child.pop()
                stats.calls += 1
                child[-1] += span
            if on_call is not None:
                on_call(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_lookup(self, args, result) -> None:
        grid, point = args[0], args[1:]
        self.counts["lookups"] += 1
        if self._last_lookup.get(id(grid)) == point:
            self.counts["repeat_lookups"] += 1
        self._last_lookup[id(grid)] = point

    def _count_gate(self, args, result) -> None:
        self.counts["gate_results"] += 1
        if result.reason.value != "ok":
            self.counts["gate_trips"] += 1

    def _count_command(self, args, result) -> None:
        self.counts["commands"] += 1

    def _count_half_cycles(self, args, result) -> None:
        self.counts["half_cycles"] += len(result)

    def _replace(self, owner, name: str, layer: str, on_call=None) -> None:
        original = owner.__dict__[name]
        fn = original.__func__ if isinstance(original, classmethod) else original
        wrapped = self.wrap(layer, fn, on_call)
        self._saved.append((owner, name, original))
        setattr(owner, name, classmethod(wrapped) if isinstance(original, classmethod) else wrapped)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        from evplant import engine, params, rainflow, scenario

        counters = {"gate_current": self._count_gate, "command_setpoint": self._count_command}
        for layer, names in ENGINE_NAMESPACE.items():
            for name in names:
                self._replace(engine, name, layer, counters.get(name))
        self._replace(params.ParamGrid, "interpolate", "params", self._count_lookup)
        self._replace(rainflow.RainflowCounter, "feed", "rainflow", self._count_half_cycles)
        self._replace(scenario, "load_config", "scenario")
        self._replace(scenario.ScenarioProfile, "from_csv", "scenario")

    def uninstall(self) -> None:
        """Put back every original function, last replaced first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
