"""repro — reproduction of CEAL in-situ workflow auto-tuning (SC '21).

This package reimplements, end to end, the system described in

    Tong Shu, Yanfei Guo, Justin M. Wozniak, Xiaoning Ding, Ian Foster,
    Tahsin Kurc.  "Bootstrapping In-situ Workflow Auto-Tuning via Combining
    Performance Models of Component Applications."  SC '21.

Layout
------
``repro.config``
    Discrete parameter spaces, feasibility constraints, and feature
    encodings shared by every other subsystem.
``repro.cluster``
    A simulated HPC machine (nodes, cores, memory/NIC bandwidth) together
    with placement and contention models.  Substitutes for the paper's
    600-node Broadwell/Omni-Path cluster.
``repro.des``
    A small discrete-event simulation engine (events, processes, bounded
    stores) used to execute coupled in-situ workflows.
``repro.ml``
    From-scratch gradient-boosted regression trees (stand-in for
    ``xgboost.XGBRegressor``), a Gaussian process and k-NN, plus the
    paper's evaluation metrics (recall score, MdAPE).
``repro.apps``
    Analytical performance simulators for the paper's component
    applications: LAMMPS, Voro++, Heat Transfer, Stage Write, Gray-Scott,
    the PDF calculator, and the two plotters.
``repro.insitu``
    ADIOS-like staged streaming transport and the coupled / solo execution
    of workflows on the simulated machine.
``repro.workflows``
    The three benchmark workflows (LV, HS, GP), expert configurations, and
    ground-truth measurement pools.
``repro.core``
    The auto-tuner itself: collector/modeler/searcher framework, the
    low-fidelity analytical coupling model, and the CEAL, RS, AL, GEIST and
    ALpH tuning algorithms.
``repro.experiments``
    Drivers that regenerate every table and figure of the paper's
    evaluation section.
"""

from repro._version import __version__

__all__ = ["__version__"]
