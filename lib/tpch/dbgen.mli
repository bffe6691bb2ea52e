(** dbgen: deterministic population of the TPC-H schema at a given
    scale factor, substituting for the TPC-H dbgen tool.  Also exposes
    the row builders and bulk-insert path the refresh functions reuse. *)

type state = {
  rng : Rng.t;
  sf : float;
  n_supplier : int;
  n_part : int;
  n_customer : int;
  mutable next_orderkey : int;
  mutable live : int array;
  mutable live_head : int;
  mutable live_tail : int;
}

(** Create all eight tables and populate them; returns the generator
    state driving the refresh functions.  Deterministic per [seed]. *)
val generate : ?seed:int -> Sqldb.Db.t -> sf:float -> state

(** Number of live (non-deleted) orders. *)
val order_count : state -> int

val push_live : state -> int -> unit

(** Remove and return the [count] lowest live order keys (dbgen RF2
    deletes from the low end). *)
val take_oldest_live : state -> int -> int array

(** {1 Row builders / loading (shared with Refresh)} *)

val make_order : state -> key:int -> status:string -> day:int -> Storage.Record.row

val lineitems_for : state -> orderkey:int -> day:int -> Storage.Record.row list

(** Insert rows into a table in batched transactions.
    @raise Invalid_argument on an unknown table. *)
val bulk_insert : Sqldb.Db.t -> string -> Storage.Record.row list -> unit

(** @raise Invalid_argument on an unknown table. *)
val find_table : Sqldb.Exec.env -> string -> Sqldb.Catalog.table
