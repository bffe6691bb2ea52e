(* Abstract syntax for the SQL dialect.

   The dialect is the SQLite subset the paper's programs need, plus
   Retro's [AS OF] extension: SELECT with joins / GROUP BY / HAVING /
   ORDER BY / LIMIT / DISTINCT, scalar and aggregate functions, UDF
   calls, INSERT / UPDATE / DELETE, CREATE TABLE [AS] / CREATE INDEX /
   DROP, and BEGIN / COMMIT [WITH SNAPSHOT] / ROLLBACK. *)

type value = Storage.Record.value

type unop = Neg | Not

type binop =
  | Add | Sub | Mul | Div | Mod | Concat
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or

type expr =
  | Lit of value
  | Col of string option * string (* optional table qualifier, column name *)
  | Colidx of int                 (* resolved positional reference (internal) *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Like of { subject : expr; pattern : expr; negated : bool }
  | In_list of { subject : expr; candidates : expr list; negated : bool }
  | Between of { subject : expr; low : expr; high : expr; negated : bool }
  | Is_null of { subject : expr; negated : bool }
  | Call of string * expr list    (* scalar builtin or UDF *)
  | Agg of agg                    (* aggregate function call *)
  | Case of { branches : (expr * expr) list; else_ : expr option }
  | Cast of expr * string         (* CAST(e AS type) *)
  | Subquery of select            (* scalar subquery (uncorrelated) *)
  | In_select of { subject : expr; sub : select; negated : bool }
  | Exists of { sub : select; negated : bool }
  | Aggref of int                 (* resolved aggregate slot (internal) *)
  | Param of int                  (* positional parameter (? placeholder), 0-based *)
  | In_set of {                   (* internal: materialized IN (SELECT ...) *)
      subject : expr;
      set : (string, unit) Hashtbl.t;
      has_null : bool;
      negated : bool;
    }

and agg = {
  agg_fn : agg_fn;
  agg_arg : expr option;      (* None = COUNT star *)
  agg_distinct : bool;
}

and agg_fn = Count | Sum | Total | Avg | Min | Max

and sel_item =
  | Star
  | Table_star of string
  | Sel_expr of expr * string option (* expr AS alias *)

and order_item = { ord_expr : expr; ord_desc : bool }

and table_ref = { tbl_name : string; tbl_alias : string option }

and join_kind = Join_inner | Join_left

and join_clause = { join_table : table_ref; join_on : expr option; join_kind : join_kind }

and select = {
  as_of : expr option;  (* SELECT AS OF <snapshot id> ... (Retro) *)
  distinct : bool;
  items : sel_item list;
  from : (table_ref * join_clause list) option;
  where : expr option;
  group_by : expr list;
  having : expr option;
  order_by : order_item list;
  limit : expr option;
  offset : expr option;
  union_with : (bool * select) list; (* UNION (false) / UNION ALL (true) chain *)
}

type col_def = { col_name : string; col_type : string }

type stmt =
  | Select of select
  | Explain of select
  | Explain_profile of select (* EXPLAIN PROFILE: run and print span tree + counter deltas *)
  | Explain_analyze of select (* EXPLAIN ANALYZE: run and annotate the plan with actuals *)
  | Explain_lint of stmt      (* EXPLAIN LINT: analyze only, report diagnostics as rows *)
  | Insert of {
      table : string;
      columns : string list option;
      values : expr list list;     (* VALUES rows *)
      from_select : select option; (* INSERT INTO t SELECT ... *)
    }
  | Delete of { table : string; where : expr option }
  | Update of { table : string; sets : (string * expr) list; where : expr option }
  | Create_table of {
      table : string;
      cols : col_def list;
      if_not_exists : bool;
      as_select : select option;
    }
  | Create_index of {
      index : string;
      table : string;
      columns : string list;
      if_not_exists : bool;
    }
  | Drop_table of { table : string; if_exists : bool }
  | Drop_index of { index : string; if_exists : bool }
  | Begin_txn
  | Commit of { with_snapshot : bool }
  | Rollback
  | Analyze_archive (* ANALYZE ARCHIVE: snapshot-archive health report *)
  | Vacuum_snapshots of {
      older_than : expr option;   (* OLDER THAN n: drop ids < n *)
      keeping_last : expr option; (* KEEPING LAST n: retain the n newest *)
      dry_run : bool;             (* report reclaimable space, change nothing *)
    } (* VACUUM SNAPSHOTS: drop an archive prefix and compact the Pagelog *)
  | Checkpoint (* CHECKPOINT: materialize the WAL into an image and truncate it *)
  | Pragma of string (* PRAGMA integrity_check etc. *)

(* The aggregate functions' SQL names, the one list of them: the parser
   reads a call's name through it, and messages print it back. *)
let agg_names =
  [ ("count", Count); ("sum", Sum); ("total", Total); ("avg", Avg); ("min", Min); ("max", Max) ]

let agg_fn_of_name name = List.assoc_opt (String.lowercase_ascii name) agg_names

let agg_fn_name fn = fst (List.find (fun (_, f) -> f = fn) agg_names)
