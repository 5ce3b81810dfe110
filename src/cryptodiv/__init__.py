"""Data-source diversity analysis for cryptocurrency market forecasting.

Pipeline pieces: a market-cap index over the top-N assets, multi-source
dataset construction, technical indicator generation, from-scratch tree
ensembles, four feature-importance evaluators, an iterative multi-method
feature-reduction algorithm, and the scenario experiments that quantify how
much diverse data sources improve forecast MSE.
"""

# The modules are the public interface (`from cryptodiv import models`). This one
# name stays at the root because perfbench's tracer self-check requires the root's
# binding of fit_forest to be wrapped along with every module's.
from .models import fit_forest
