"""The four benchmark workloads.  BENCHMARK.md says why each one exists.

Every workload has two phases.  ``setup`` builds the inputs (instances, the
brute-force optimum, the encodings and, on exact-n3, the ExactEngine) and is
what ``setup_s`` times.  ``run`` does the measured work and checks its
outputs.  ``fresh_inputs`` says whether ``run`` changes its inputs, so that
each repetition of it needs a new set-up.  Every input is derived from the workload seed, so one seed gives
one set of inputs.

With the tracer enabled, the GAS workloads mirror ``cdf_experiment``'s loop
(sorted kinds, one SearchSpace per kind, one ``run_gas`` per child of
``SeedSequence(seed).spawn(runs)``) so the index build is timed on its own;
with it disabled they call ``cdf_experiment`` itself.
"""
from __future__ import annotations

import zlib
from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

import qapgas.gas
from qapgas import MultilinearPolynomial, brute_force_optimum, encode, random_instance
from qapgas.analysis import ALL_KINDS, cnot_total, controlled_rotation_count, register_widths
from qapgas.circuits import build_grover_operator, build_state_prep, count_gates
from qapgas.encodings import FormulationKind
from qapgas.gas import ExactEngine, GasConfig, KnownOptimum, SearchSpace, cdf_experiment, run_gas
from qapgas.qap import generic_instance
from qapgas.sim import StateVector

OPTIMUM_TOL = 1e-9
MAX_ITERATIONS = 100_000  # cdf_experiment's default cap
EXACT_SCALE = 100.0  # makes the value register exact on random_instance's 0.01 grid
COMPLEX_BYTES = 16


def derive(seed: int, label: str) -> int:
    """Seed of one named input of a workload, derived from the workload seed."""
    state = np.random.SeedSequence([seed, zlib.crc32(label.encode())]).generate_state(1)
    return int(state[0] >> 1)


@dataclass
class Outcome:
    """What one pass did, and whether its outputs were right."""

    runs: int = 0
    queries: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    kind_queries: dict[str, list[int]] = field(default_factory=dict)
    science: dict = field(default_factory=dict)

    def record(self, ok: bool, error: str) -> None:
        self.attempted += 1
        if ok:
            self.runs += 1
        else:
            self.failed += 1
            self.errors.append(error)

    def fail(self, count: int, error: str) -> None:
        self.attempted += count
        self.failed += count
        self.errors.append(error)


@dataclass
class GasProblem:
    label: str
    forms: dict
    optimum: float
    runs: int
    run_seed: int
    engine: ExactEngine | None = None


# ---------------------------------------------------------------------------
# shared steps
# ---------------------------------------------------------------------------


def make_problem(tracer, label, instance_fn, n, seed, kinds, runs) -> GasProblem:
    with tracer.span("qap.instance"):
        inst = instance_fn(n, derive(seed, label))
    with tracer.span("qap.brute_force"):
        _, optimum = brute_force_optimum(inst)
    forms = {}
    for kind in kinds:
        with tracer.span("encodings.encode", tag=kind):
            forms[kind] = encode(inst, kind)
    return GasProblem(label, forms, optimum, runs, derive(seed, f"runs-{label}"))


def trace_sampler(tracer, sampler, layer: str) -> None:
    tracer.wrap(sampler, "sample", f"{layer}.sample", aggregate=True)
    tracer.wrap(sampler, "uniform_sample", f"{layer}.uniform_sample", aggregate=True)


def build_engine(tracer, form) -> ExactEngine:
    with tracer.span("gas.engine.init"):
        engine = ExactEngine(form, scale=EXACT_SCALE)
    trace_sampler(tracer, engine, "gas.engine")
    tracer.wrap(engine, "variable_distribution", "gas.engine.distribution")
    tracer.wrap(engine, "prepared_state", "gas.engine.prepare")
    tracer.wrap(engine, "grover_step", "gas.engine.step", aggregate=True)
    return engine


def check_run(out: Outcome, where: str, trace, optimum: float) -> None:
    reached = trace.found_optimum is True and abs(trace.best_value - optimum) <= OPTIMUM_TOL
    out.record(reached, f"{where}: stopped at {trace.best_value!r}, optimum {optimum!r}")
    out.queries += trace.queries


def count_driver_work(tracer, trace) -> None:
    if not tracer.enabled:
        return
    with tracer.span("trace.stats"):
        tracer.counters["gas.driver.iterations"] += len(trace.iterations)
        tracer.counters["gas.driver.queries"] += trace.queries
        tracer.counters["gas.driver.accepted"] += sum(1 for it in trace.iterations if it.accepted)


def run_gas_problems(problems, tracer, out: Outcome) -> None:
    """All GAS runs of the problems; untraced through cdf_experiment."""
    for problem in problems:
        if tracer.enabled:
            run_mirrored(problem, tracer, out)
            continue
        try:
            result = cdf_experiment(
                problem.forms, problem.optimum, problem.runs, seed=problem.run_seed,
                max_iterations=MAX_ITERATIONS,
            )
        except RuntimeError as exc:
            out.fail(problem.runs * len(problem.forms), f"{problem.label}: {exc}")
            continue
        for kind, counts in result.queries.items():
            out.kind_queries[f"{problem.label}/{kind}"] = [int(q) for q in counts]
            out.attempted += len(counts)
            out.runs += len(counts)
            out.queries += int(counts.sum())


def run_mirrored(problem: GasProblem, tracer, out: Outcome) -> None:
    root = np.random.SeedSequence(problem.run_seed)
    for kind, form in sorted(problem.forms.items()):
        with tracer.span("gas.space.build", tag=kind):
            space = SearchSpace(form)
        with tracer.span("trace.stats"):
            # Bytes and distinct values of the largest space built in the pass.
            nbytes = space.sorted_values.nbytes + space.order.nbytes
            if nbytes > tracer.counters["gas.space.bytes"]:
                tracer.counters["gas.space.bytes"] = nbytes
                tracer.counters["gas.space.levels"] = (
                    int(np.count_nonzero(np.diff(space.sorted_values))) + 1
                )
        trace_sampler(tracer, space, "gas.space")
        counts = []
        for r, child in enumerate(root.spawn(problem.runs)):
            config = GasConfig(
                termination=KnownOptimum(problem.optimum), seed=child, max_iterations=MAX_ITERATIONS
            )
            where = f"{problem.label}/{kind}/{r}"
            with tracer.span("gas.driver.run", tag=kind, run=where):
                trace = run_gas(form, config, space=space)
            check_run(out, where, trace, problem.optimum)
            count_driver_work(tracer, trace)
            counts.append(trace.queries)
        out.kind_queries[f"{problem.label}/{kind}"] = counts
        del space


def space_bytes(form) -> int:
    """Bytes of a SearchSpace's sorted values plus its order array (computed)."""
    order_bytes = 8 if form.space_size > (1 << 31) else 4
    return form.space_size * (8 + order_bytes)


def median_queries(out: Outcome) -> dict[str, float]:
    pooled: dict[str, list[int]] = {}
    for key, counts in out.kind_queries.items():
        pooled.setdefault(key.rsplit("/", 1)[1], []).extend(counts)
    return {kind: float(np.median(counts)) for kind, counts in sorted(pooled.items())}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class GasN4:
    """cdf_experiment on N=4 instances, all three encodings, runs to the optimum."""

    name = "gas-n4"
    fresh_inputs = False
    # Instances differ by about 10% in run length, so many instances with
    # fewer runs each keep the seed-to-seed spread small.
    instances = 16
    runs = 40

    def setup(self, seed, tracer):
        return [
            make_problem(tracer, f"n4-{k}", random_instance, 4, seed, ALL_KINDS, self.runs)
            for k in range(self.instances)
        ]

    def computed_sizes(self, problems) -> dict:
        return {"search_space_bytes": max(space_bytes(f) for p in problems for f in p.forms.values())}

    def run(self, problems, tracer):
        out = Outcome()
        run_gas_problems(problems, tracer, out)
        medians = median_queries(out)
        if len(medians) == len(ALL_KINDS):
            best_proposed = min(medians["qubo-d"], medians["hubo-hw"])
            out.science = {
                "median_queries": medians,
                "speedup_qubo_h_over_best_proposed": medians["qubo-h"] / best_proposed,
                "ratio_qubo_d_over_hubo_hw": medians["qubo-d"] / medians["hubo-hw"],
            }
        return out


class GasLarge:
    """cdf_experiment on the largest space each encoding can emulate."""

    name = "gas-large"
    fresh_inputs = False
    runs = 4

    def setup(self, seed, tracer):
        return [
            make_problem(tracer, "n5", random_instance, 5, seed, ("qubo-h",), self.runs),
            make_problem(tracer, "n6", random_instance, 6, seed, ("hubo-hw", "qubo-d"), self.runs),
        ]

    def computed_sizes(self, problems) -> dict:
        return {"search_space_bytes": max(space_bytes(f) for p in problems for f in p.forms.values())}

    def run(self, problems, tracer):
        out = Outcome()
        run_gas_problems(problems, tracer, out)
        out.science = {"median_queries": median_queries(out)}
        return out


class ExactN3:
    """run_gas with the exact backend on a prebuilt ExactEngine, hubo-hw at N=3."""

    name = "exact-n3"
    # The engines cache their distributions, so a second run on the same
    # inputs would measure only cache hits.
    fresh_inputs = True
    instances = 3
    runs = 8

    def setup(self, seed, tracer):
        problems = []
        for k in range(self.instances):
            problem = make_problem(
                tracer, f"n3-{k}", random_instance, 3, seed, ("hubo-hw",), self.runs
            )
            problem.engine = build_engine(tracer, problem.forms["hubo-hw"])
            problems.append(problem)
        return problems

    def computed_sizes(self, problems) -> dict:
        grid = max((1 << (p.engine.form.num_vars + p.engine.width)) for p in problems)
        return {"exact_grid_bytes": grid * COMPLEX_BYTES}

    def run(self, problems, tracer):
        out = Outcome()
        for problem in problems:
            form = problem.forms["hubo-hw"]
            counts = []
            for r, child in enumerate(np.random.SeedSequence(problem.run_seed).spawn(problem.runs)):
                config = GasConfig(
                    termination=KnownOptimum(problem.optimum), seed=child, backend="exact"
                )
                where = f"{problem.label}/hubo-hw/{r}"
                try:
                    with tracer.span("gas.driver.run", run=where):
                        trace = run_gas(form, config, engine=problem.engine)
                except Exception as exc:  # a run that raises is a failed operation
                    out.fail(1, f"{where}: {exc!r}")
                    continue
                check_run(out, where, trace, problem.optimum)
                count_driver_work(tracer, trace)
                counts.append(trace.queries)
            out.kind_queries[f"{problem.label}/hubo-hw"] = counts
        out.science = {"median_queries": median_queries(out)}
        return out


class Circuits:
    """Gate tables for N=2..8 and one simulated GAS iteration at N=3."""

    name = "circuits"
    fresh_inputs = False
    sizes = range(2, 9)
    sim_kind = "hubo-hw"
    marginal_tol = 1e-9

    def setup(self, seed, tracer):
        tables = []
        for n in self.sizes:
            with tracer.span("qap.instance"):
                inst = generic_instance(n, derive(seed, f"generic-{n}"))
            for kind in ALL_KINDS:
                with tracer.span("encodings.encode", tag=kind):
                    tables.append((n, kind, encode(inst, kind)))
        with tracer.span("qap.instance"):
            inst = random_instance(3, derive(seed, "sim"))
        with tracer.span("encodings.encode", tag=self.sim_kind):
            sim_form = encode(inst, self.sim_kind)
        return tables, sim_form

    def computed_sizes(self, ctx) -> dict:
        _, sim_form = ctx
        qubits = sim_form.num_vars + ExactEngine(sim_form, scale=EXACT_SCALE).width
        # The simulated register and the engine's grid hold the same qubits.
        nbytes = (1 << qubits) * COMPLEX_BYTES
        return {"statevector_bytes": nbytes, "exact_grid_bytes": nbytes}

    def run(self, ctx, tracer):
        tables, sim_form = ctx
        out = Outcome()
        for n, kind, form in tables:
            with tracer.span("analysis.closed_form"):
                width = register_widths(n, kind)[1]
            with tracer.span("circuits.build", tag=kind) as span:
                prep = build_state_prep(form, width)
            if tracer.enabled:
                span.items += len(prep.gates)
            with tracer.span("circuits.count"):
                counts = count_gates(prep)
            with tracer.span("analysis.closed_form"):
                ok = counts.cnot_rz_model == cnot_total(n, kind, "rz", width).total
                ok &= counts.cnot_r_model == cnot_total(n, kind, "r", width).total
                if kind == "hubo-hw":
                    ok &= all(
                        gates == controlled_rotation_count(n, k, width)
                        for k, gates in counts.term_rank_histogram.items()
                    )
            out.record(ok, f"N={n} {kind}: gate counts differ from the closed forms")
        self.simulate(sim_form, tracer, out)
        return out

    def simulate(self, form, tracer, out: Outcome) -> None:
        """Prep plus one Grover step on the statevector, against the exact engine."""
        engine = build_engine(tracer, form)
        threshold = float(np.sort(engine.values)[engine.values.size // 2])
        with tracer.span("circuits.build", tag=form.kind.value) as span:
            prep = build_state_prep(form, engine.width, threshold=threshold, scale=EXACT_SCALE)
        with tracer.span("circuits.grover_build") as grover_span:
            grover = build_grover_operator(prep)
        if tracer.enabled:
            span.items += len(prep.gates)
            grover_span.items += len(grover.gates)
        with tracer.span("sim.init"):
            state = StateVector(prep.num_qubits)
        # StateVector has __slots__, so apply_all is timed at the call site.
        with tracer.span("sim.apply") as apply_span:
            state.apply_all(prep.gates)
            state.apply_all(grover.gates)
        with tracer.span("sim.marginal"):
            simulated = state.marginal(range(prep.num_vars))
        expected = engine.variable_distribution(threshold, 1)
        if tracer.enabled:
            apply_span.items += len(prep.gates) + len(grover.gates)
            tracer.counters["sim.qubits"] = prep.num_qubits
            tracer.counters["sim.bytes_moved"] = sum(
                2 * COMPLEX_BYTES * (1 << (prep.num_qubits - len(g.controls)))
                for g in (*prep.gates, *grover.gates)
            )
        error = float(np.max(np.abs(simulated - expected)))
        out.science["marginal_max_error"] = error
        out.record(error <= self.marginal_tol,
                   f"simulated marginal differs from the exact engine by {error:.3g}")
        out.queries += 2  # one GAS iteration with L = 1 Grover step costs L + 1 queries


WORKLOADS = {w.name: w for w in (GasN4(), GasLarge(), ExactN3(), Circuits())}


def tracing_patches(tracer):
    """Timers on the two calls SearchSpace and ExactEngine make internally.

    ``SearchSpace.__init__`` calls ``objective_values`` through the gas module,
    which for hypercube spaces calls ``evaluate_table``; MultilinearPolynomial
    has __slots__, so neither can be wrapped on an instance.  The wrappers are
    removed when the traced pass ends.
    """
    def dicke_ranks(args, values):
        return int(values.size) if args[0].kind is FormulationKind.QUBO_DICKE else 0

    stack = ExitStack()
    stack.enter_context(
        tracer.patch(qapgas.gas, "objective_values", "circuits.objective_values", count=dicke_ranks)
    )
    stack.enter_context(
        tracer.patch(MultilinearPolynomial, "evaluate_table", "polynomials.evaluate_table")
    )
    return stack
