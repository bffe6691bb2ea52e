(** The aggregate functions RQL's aggregation mechanisms accept.

    The paper requires AggFunc to be definable by an abelian monoid
    (X, op, e) — op associative and commutative, e its neutral element.
    MIN, MAX, SUM and COUNT qualify; AVG is supported as the paper's
    special case via a (sum, count) product; COUNT/SUM DISTINCT are
    rejected with the paper's suggested workaround (CollateData + SQL).

    This module only names the functions.  There is one fold, the
    executor's accumulator ([Exec.acc_add], with [Exec.acc_resume] and
    [Exec.acc_resume_avg] to continue from a stored result), so an RQL
    aggregate equals the SQL aggregate over the snapshots' Qq answers:
    NULL is skipped; every other value counts for COUNT and AVG; a
    non-numeric TEXT adds 0 to SUM and AVG; a REAL or numeric TEXT makes
    SUM REAL; MIN and MAX order values as [Record.compare_value] does.
    Hence, for the RQL mechanisms: TEXT folds as SQL folds it;
    AggregateDataInVariable's COUNT is 0 while Qq has returned no row;
    its INTEGER sums beyond 2^53 mixed with REALs follow the executor's
    float order; and AggregateDataInTable writes a row back when only a
    value's type changed (DESIGN.md §5). *)

(** SQL's aggregate variant; {!of_string} never gives [Total]. *)
type t = Ast.agg_fn = Count | Sum | Total | Avg | Min | Max

(** Parse a function name (case-insensitive): SQL's names but TOTAL,
    and "average" for AVG.
    @raise Sql_error.Error for non-monoid aggregations, with guidance. *)
val of_string : string -> t
