(* The aggregate functions RQL's aggregation mechanisms accept.

   The paper requires AggFunc to be definable by an abelian monoid
   (X, op, e): op associative and commutative, e its neutral element.
   MIN, MAX, SUM and COUNT qualify; AVG does not, but is supported as a
   special case by carrying a (sum, count) pair; COUNT DISTINCT / SUM
   DISTINCT are rejected with the paper's suggested alternative
   (CollateData plus a SQL aggregate over the result).

   A function is SQL's own aggregate variant, and its fold the
   executor's accumulator (Exec.acc_add), the one SQL's aggregates use.
   This module only holds AggFunc's naming rules. *)

type t = Ast.agg_fn = Count | Sum | Total | Avg | Min | Max

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "average" -> Avg
  | ("count distinct" | "count_distinct" | "sum distinct" | "sum_distinct") as d ->
    Sql_error.error
      "%s is not an abelian monoid; use CollateData to collect the elements and aggregate with SQL" d
  | name -> (
    match Ast.agg_fn_of_name name with
    | Some Total | None -> Sql_error.error "unknown aggregate function %s" name
    | Some fn -> fn)
