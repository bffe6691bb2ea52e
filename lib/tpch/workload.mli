(** Update workloads: the paper's UW families (Table 1).

    Between consecutive snapshot declarations a constant number of
    orders (and their lineitems) is deleted and inserted.  The family is
    defined as a fraction of the SF1 order population so the
    diff(S1,S2)-to-database ratio the experiments measure is preserved
    across scale factors: UW15 = 1% (overwrite cycle ≈ 100 snapshots),
    UW30 = 2% (≈ 50), as in §4. *)

type uw = {
  uname : string;
  fraction : float; (** of the SF1 order population, per snapshot *)
}

val uw7_5 : uw
val uw15 : uw
val uw30 : uw
val uw60 : uw

(** @raise Invalid_argument on an unknown name. *)
val of_name : string -> uw

val orders_per_snapshot : uw -> sf:float -> int

(** Expected overwrite-cycle length in snapshots (1 / fraction). *)
val overwrite_cycle : uw -> int

(** Run [snapshots] rounds of (RF2; RF1; COMMIT WITH SNAPSHOT),
    recording each snapshot in SnapIds; returns the snapshot ids. *)
val run : Rql.ctx -> Dbgen.state -> uw:uw -> snapshots:int -> int list

(** Fresh context + TPC-H at [sf] + [snapshots] rounds of [uw]: the
    setup phase shared by the §5 experiments. *)
val build_history :
  ?seed:int -> sf:float -> uw:uw -> snapshots:int -> unit ->
  Rql.ctx * Dbgen.state * int list

(** Hex digest of the database's committed pages (stored CRCs and the
    free list included), its Pagelog blocks (with their CRCs), its
    Maplog entries and boundaries (without timestamps) and its per-page
    COW epochs: equal digests mean byte-identical histories. *)
val history_digest : Sqldb.Db.t -> string
