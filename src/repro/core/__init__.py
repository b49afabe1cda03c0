"""Constraint propagation kernel (thesis chapter 4).

The public surface of the kernel: variables, constraints, the propagation
context, justifications, dependency analysis and the constraint editor.
"""

from .agenda import FUNCTIONAL, IMPLICIT, Agenda, AgendaScheduler
from .compile import CompilationError, CompiledNetwork, compile_network
from .constraint import Constraint
from .control import PropagationControl, control_for
from .dependency import antecedents, consequences, variable_consequences
from .editor import ConstraintEditor
from .explain import Diagnosis, ExplainingHandler, Recommendation, explain
from .engine import (
    PropagationContext,
    PropagationStats,
    RoundBudget,
    default_context,
    reset_default_context,
)
from .functional import (
    FormulaConstraint,
    FunctionalConstraint,
    ScaleOffsetConstraint,
    UniAdditionConstraint,
    UniMaximumConstraint,
    UniMinimumConstraint,
)
from .islands import bfs_partition
from .justification import (
    APPLICATION,
    DEFAULT,
    TENTATIVE,
    UPDATE,
    USER,
    ExternalJustification,
    PropagatedJustification,
    is_propagated,
    is_user,
    may_overwrite,
    source_constraint,
)
from .library import CompatibleConstraint, EqualityConstraint, UpdateConstraint
from .predicates import (
    AreaBoundConstraint,
    AspectRatioPredicate,
    FunctionPredicate,
    LowerBoundConstraint,
    OrderingConstraint,
    PitchMatchPredicate,
    PredicateConstraint,
    RangeConstraint,
    UpperBoundConstraint,
)
from .strengths import (
    DEFAULT_STRENGTH,
    MEDIUM,
    REQUIRED,
    STRONG,
    StrengthAwareVariable,
    USER_STRENGTH,
    WEAK,
    WEAKEST,
    strength_of_constraint,
    with_strength,
)
from .sweep import (
    HAVE_NUMPY,
    SweepError,
    SweepPlan,
    SweepResult,
    compile_sweep,
    sweep,
)
from .satisfaction import (
    Infeasible,
    Interval,
    IntervalSolver,
    RelaxationSolver,
    plan_one_pass,
    solve_one_pass,
)
from .trace import PropagationTrace, trace
from .variable import Variable
from .violations import (
    BudgetExceeded,
    ConstraintViolationError,
    PropagationViolation,
    RaisingHandler,
    ViolationHandler,
    ViolationRecord,
    WarningHandler,
)

__all__ = [
    "APPLICATION", "DEFAULT", "TENTATIVE", "UPDATE", "USER",
    "Agenda", "AgendaScheduler", "CompilationError", "CompiledNetwork",
    "DEFAULT_STRENGTH", "Diagnosis", "ExplainingHandler", "FUNCTIONAL",
    "IMPLICIT", "Infeasible", "Interval", "IntervalSolver", "MEDIUM",
    "PropagationControl", "REQUIRED", "Recommendation", "RelaxationSolver",
    "STRONG", "StrengthAwareVariable", "USER_STRENGTH", "WEAK", "WEAKEST",
    "bfs_partition", "PropagationTrace",
    "HAVE_NUMPY", "SweepError", "SweepPlan", "SweepResult",
    "compile_network", "compile_sweep", "control_for", "explain",
    "plan_one_pass", "solve_one_pass", "strength_of_constraint", "sweep",
    "trace", "with_strength",
    "AreaBoundConstraint", "AspectRatioPredicate", "BudgetExceeded",
    "CompatibleConstraint",
    "Constraint", "ConstraintEditor", "ConstraintViolationError",
    "EqualityConstraint", "ExternalJustification", "FormulaConstraint",
    "FunctionPredicate", "FunctionalConstraint", "LowerBoundConstraint",
    "OrderingConstraint", "PitchMatchPredicate", "PredicateConstraint",
    "PropagatedJustification", "PropagationContext", "PropagationStats",
    "PropagationViolation", "RaisingHandler", "RangeConstraint",
    "RoundBudget",
    "ScaleOffsetConstraint", "UniAdditionConstraint", "UniMaximumConstraint",
    "UniMinimumConstraint", "UpdateConstraint", "UpperBoundConstraint",
    "Variable", "ViolationHandler", "ViolationRecord", "WarningHandler",
    "antecedents", "consequences", "default_context", "is_propagated",
    "is_user", "may_overwrite", "reset_default_context", "source_constraint",
    "variable_consequences",
]
