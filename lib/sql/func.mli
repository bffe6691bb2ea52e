(** Builtin scalar functions: the SQLite core-function subset the
    paper's workloads use (abs, length, lower/upper, substr, coalesce,
    ifnull, nullif, typeof, round, scalar min/max, instr, trim,
    replace).  User-defined functions registered on a handle live in the
    same namespace and take precedence. *)

exception Error of string

(** Lookup by (case-insensitive) name.  A call with an argument count
    outside the builtin's {!arity} raises {!Error} before the body runs. *)
val find : string -> (Storage.Record.row -> Storage.Record.value) option

(** The (fewest, most) argument counts a builtin accepts; [most] is
    [max_int] when unbounded. *)
val arity : string -> (int * int) option

(** The one wording of an arity error: "[name] expects [range], got [n]". *)
val arity_message : string -> int * int -> int -> string
