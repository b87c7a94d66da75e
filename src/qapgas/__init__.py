"""Grover adaptive search for the quadratic assignment problem.

Library layout:

* qap         -- instances, objective, brute-force ground truth, QAPLIB I/O
* polynomials -- multilinear polynomial algebra over binary variables
* encodings   -- the three QAP-to-binary formulations and their decoders
* space       -- search-space enumeration: exact objective values of every
                 state, Dicke ranks, value bounds, the enumeration cap
* circuits    -- gate-level IR: state preparation, Dicke states, Grover
                 operator, gate/CNOT cost accounting
* sim         -- dense statevector simulator for small registers
* gas         -- the adaptive-threshold Grover search driver with exact and
                 emulated backends, plus query-complexity experiments
* analysis    -- closed-form term/qubit/gate-count formulas and metric tables
"""
from .qap import (
    Permutation,
    QapInstance,
    brute_force_optimum,
    dense_instance,
    objective,
    parse_qaplib,
    random_instance,
)
from .polynomials import MultilinearPolynomial
from .encodings import (
    CodeTable,
    Formulation,
    FormulationKind,
    build_code_table,
    encode,
    encode_hubo_hw,
    encode_qubo,
    encode_qubo_dicke,
    search_space_sizes,
    term_census,
)

__all__ = [
    "CodeTable",
    "Formulation",
    "FormulationKind",
    "MultilinearPolynomial",
    "Permutation",
    "QapInstance",
    "brute_force_optimum",
    "build_code_table",
    "dense_instance",
    "encode",
    "encode_hubo_hw",
    "encode_qubo",
    "encode_qubo_dicke",
    "objective",
    "parse_qaplib",
    "random_instance",
    "search_space_sizes",
    "term_census",
]
