"""One adaptive search, narrated.

Follow the threshold trajectory of a single run, then cross-check the
emulated sampler against the exact statevector backend on the same
formulation.
"""
import numpy as np

from qapgas import brute_force_optimum, encode
from qapgas.gas import ExactEngine, GasConfig, KnownOptimum, SearchSpace, run_gas
from qapgas.samples import sample_instance

inst = sample_instance(3)
_, best = brute_force_optimum(inst)
form = encode(inst, "hubo-hw")
space = SearchSpace(form)

trace = run_gas(form, GasConfig(termination=KnownOptimum(best), seed=11), space=space)
print(f"instance {inst.name}: optimum {best:.2f}")
print(f"initial sample: value {trace.initial_value:.2f}")
print(" it  L  sampled   accepted  threshold  k")
for i, it in enumerate(trace.iterations):
    print(
        f" {i:3d}  {it.rotations}  {it.value:7.2f}   {str(it.accepted):5s}"
        f"    {it.threshold_after:7.2f}  {it.k_after:.2f}"
    )
print(f"total queries (L+1 per iteration): {trace.queries}")
print(f"decoded optimum: {form.decode(trace.best_bits).mapping}")

# The exact backend simulates the actual circuits (here with a coefficient
# scale that makes the 0.01-grid objective integer inside the register).
engine = ExactEngine(form, scale=100.0)
print(f"\nexact backend register: {form.num_vars}+{engine.width} qubits")
rng = np.random.default_rng(0)
y = trace.initial_value
for rotations in (0, 1, 2):
    t = space.count_below(y)
    from qapgas.gas import marked_probability

    model = marked_probability(t, space.size, rotations)
    hits = (engine.values[engine.sample_many(y, rotations, 4000, rng)] < y).mean()
    print(f"  threshold {y:.2f}, L={rotations}: circuit frequency {hits:.3f}, model {model:.3f}")

exact_trace = run_gas(
    form, GasConfig(termination=KnownOptimum(best), backend="exact", seed=11), engine=engine
)
print(f"exact-backend run reached {exact_trace.best_value:.2f} "
      f"in {exact_trace.queries} queries")
