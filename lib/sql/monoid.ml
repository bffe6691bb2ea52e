(* The aggregate functions RQL's aggregation mechanisms accept.

   The paper requires AggFunc to be definable by an abelian monoid
   (X, op, e): op associative and commutative, e its neutral element.
   MIN, MAX, SUM and COUNT qualify; AVG does not, but is supported as a
   special case by carrying a (sum, count) pair; COUNT DISTINCT / SUM
   DISTINCT are rejected with the paper's suggested alternative
   (CollateData plus a SQL aggregate over the result).

   This module only names the functions.  Their fold is the executor's
   accumulator (Exec.acc_add), the one SQL's aggregates use. *)

type t = Min | Max | Sum | Count | Avg

exception Not_supported of string

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "min" -> Min
  | "max" -> Max
  | "sum" -> Sum
  | "count" -> Count
  | "avg" | "average" -> Avg
  | ("count distinct" | "count_distinct" | "sum distinct" | "sum_distinct") as d ->
    raise
      (Not_supported
         (d
        ^ " is not an abelian monoid; use CollateData to collect the elements and \
           aggregate with SQL"))
  | s -> raise (Not_supported ("unknown aggregate function " ^ s))

(* The executor's name of the function. *)
let to_string = function
  | Min -> "min"
  | Max -> "max"
  | Sum -> "sum"
  | Count -> "count"
  | Avg -> "avg"
