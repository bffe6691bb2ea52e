(* Global metrics registry: named counters, gauges and log-scale latency
   histograms.

   This registry is the single source of truth for the cost accounting:
   Storage.Stats and Sqldb.Exec_stats only name handles into it.  The
   hot paths (per-page, per-row) increment a pre-looked-up counter, so
   an increment is exactly one mutable-field write. *)

module Counter = struct
  type t = { name : string; mutable v : int }

  let incr t = t.v <- t.v + 1
  let add t n = t.v <- t.v + n
  let get t = t.v
  let set t n = t.v <- n
  let name t = t.name
end

module Gauge = struct
  type t = { name : string; mutable v : float }

  let add t x = t.v <- t.v +. x
  let set t x = t.v <- x
  let get t = t.v
  let name t = t.name
end

(* Log-scale histogram for latencies in seconds: 10 buckets per decade
   over [1e-7, 1e3) (0.1us .. ~16min), plus exact count/sum/min/max.
   Quantiles are estimated as the geometric midpoint of the bucket the
   target rank falls in, clamped to the observed [min, max] — a ~12%
   relative-error estimate, plenty for p50/p95/p99 reporting. *)
module Histogram = struct
  let decades = 10
  let per_decade = 10
  let n_buckets = decades * per_decade
  let lo_exp = -7. (* first bucket lower bound = 1e-7 *)

  type t = {
    name : string;
    buckets : int array; (* n_buckets + underflow/overflow slots at 0 and n+1 *)
    mutable count : int;
    mutable sum : float;
    mutable vmin : float;
    mutable vmax : float;
  }

  let make name =
    { name;
      buckets = Array.make (n_buckets + 2) 0;
      count = 0;
      sum = 0.;
      vmin = Float.infinity;
      vmax = Float.neg_infinity }

  let bucket_of v =
    if v < 1e-7 then 0
    else
      let i = int_of_float (Float.floor (float_of_int per_decade *. (Float.log10 v -. lo_exp))) in
      (* log10 rounding can put a value exactly on the first bound (1e-7)
         a hair below it; such a value is >= 1e-7, so it belongs in the
         first real bucket, not the underflow slot. *)
      let i = max 0 i in
      if i >= n_buckets then n_buckets + 1 else i + 1

  let observe t v =
    if Float.is_nan v then ()
    else begin
      let v = Float.max v 0. in
      let b = bucket_of v in
      t.buckets.(b) <- t.buckets.(b) + 1;
      t.count <- t.count + 1;
      t.sum <- t.sum +. v;
      if v < t.vmin then t.vmin <- v;
      if v > t.vmax then t.vmax <- v
    end

  let count t = t.count
  let sum t = t.sum
  let mean t = if t.count = 0 then 0. else t.sum /. float_of_int t.count
  let min_value t = if t.count = 0 then 0. else t.vmin
  let max_value t = if t.count = 0 then 0. else t.vmax
  let name t = t.name

  (* Lower bound of bucket slot [i] (1-based over the log range). *)
  let bucket_lo i = Float.pow 10. (lo_exp +. (float_of_int (i - 1) /. float_of_int per_decade))

  let quantile t q =
    if t.count = 0 then 0.
    else begin
      let q = Float.min 1. (Float.max 0. q) in
      let target = q *. float_of_int t.count in
      let est = ref t.vmax in
      (try
         let seen = ref 0. in
         for i = 0 to n_buckets + 1 do
           seen := !seen +. float_of_int t.buckets.(i);
           if !seen >= target then begin
             (est :=
                if i = 0 then t.vmin
                else if i = n_buckets + 1 then t.vmax
                else
                  (* geometric midpoint of the bucket *)
                  let lo = bucket_lo i in
                  lo *. Float.pow 10. (0.5 /. float_of_int per_decade));
             raise Exit
           end
         done
       with Exit -> ());
      Float.min t.vmax (Float.max t.vmin !est)
    end

  (* Cumulative counts at decade upper bounds, Prometheus-style: the
     entry for bound b counts observations <= b; the underflow slot
     folds into the first bound and only the overflow slot lies beyond
     the last.  Always monotone non-decreasing. *)
  let cumulative_buckets t =
    let out = ref [] in
    let acc = ref t.buckets.(0) in
    for d = 0 to decades - 1 do
      for j = 1 to per_decade do
        acc := !acc + t.buckets.((d * per_decade) + j)
      done;
      let bound = Float.pow 10. (lo_exp +. float_of_int (d + 1)) in
      out := (bound, !acc) :: !out
    done;
    List.rev !out

  let reset t =
    Array.fill t.buckets 0 (Array.length t.buckets) 0;
    t.count <- 0;
    t.sum <- 0.;
    t.vmin <- Float.infinity;
    t.vmax <- Float.neg_infinity

  (* Fold [src] into [into], bucket-wise.  Every histogram shares the
     same fixed bucket layout, so merging per-scope histograms is exact
     at bucket granularity: quantiles of the merge equal quantiles of
     recording every observation into one histogram, up to the bucket
     resolution (the property the scope roll-up relies on). *)
  let merge ~into src =
    for i = 0 to Array.length src.buckets - 1 do
      into.buckets.(i) <- into.buckets.(i) + src.buckets.(i)
    done;
    into.count <- into.count + src.count;
    into.sum <- into.sum +. src.sum;
    if src.vmin < into.vmin then into.vmin <- src.vmin;
    if src.vmax > into.vmax then into.vmax <- src.vmax
end

(* --- registry --------------------------------------------------------- *)

type metric =
  | M_counter of Counter.t
  | M_gauge of Gauge.t
  | M_histogram of Histogram.t

(* A metric table: the process registry is one (the root scope); every
   child Obs.Scope owns another with the same shape, so creation,
   merging, reset and JSON rendering are shared. *)
type table = (string, metric) Hashtbl.t

(* lint: allow — constructor; each table is owned by one scope and its
   entry creation is serialized by [create_mu] (see [counter_in]) *)
let make_table () : table = Hashtbl.create 16

(* lint: allow — entry creation serialized by [create_mu]; established
   entries are immutable handles (their values are word-atomic) *)
let registry : table = Hashtbl.create 64

exception Error of string

(* Guards metric *creation* (table inserts), which can race when two
   domains materialize the same scope-local metric concurrently.
   Increments on existing metrics stay lock-free mutable-field writes:
   word-atomic in OCaml 5, with lost-update imprecision under contention
   accepted (the documented counter semantics). *)
let create_mu = Mutex.create ()

(* Guarded section helper — lock-discipline lint keys on [Fun.protect]. *)
let locked_create f =
  Mutex.lock create_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock create_mu) f

(* Creation is idempotent: looking up an existing name of the same kind
   returns the registered instance, so modules can own their counters as
   top-level bindings. *)
let counter_in (tbl : table) name =
  match Hashtbl.find_opt tbl name with
  | Some (M_counter c) -> c
  | Some _ -> raise (Error (Printf.sprintf "metric %s exists with another kind" name))
  | None ->
    locked_create (fun () ->
        match Hashtbl.find_opt tbl name with
        | Some (M_counter c) -> c
        | _ ->
          let c = { Counter.name; v = 0 } in
          Hashtbl.replace tbl name (M_counter c);
          c)

let gauge_in (tbl : table) name =
  match Hashtbl.find_opt tbl name with
  | Some (M_gauge g) -> g
  | Some _ -> raise (Error (Printf.sprintf "metric %s exists with another kind" name))
  | None ->
    locked_create (fun () ->
        match Hashtbl.find_opt tbl name with
        | Some (M_gauge g) -> g
        | _ ->
          let g = { Gauge.name; v = 0. } in
          Hashtbl.replace tbl name (M_gauge g);
          g)

let histogram_in (tbl : table) name =
  match Hashtbl.find_opt tbl name with
  | Some (M_histogram h) -> h
  | Some _ -> raise (Error (Printf.sprintf "metric %s exists with another kind" name))
  | None ->
    locked_create (fun () ->
        match Hashtbl.find_opt tbl name with
        | Some (M_histogram h) -> h
        | _ ->
          let h = Histogram.make name in
          Hashtbl.replace tbl name (M_histogram h);
          h)

let counter name = counter_in registry name
let gauge name = gauge_in registry name
let histogram name = histogram_in registry name

(* Fold every metric of [src] into [into], creating destination metrics
   as needed: counters and gauges add, histograms bucket-merge.  Used by
   the scope layer to retire a dropped child's distribution into its
   parent without losing it from the roll-up.
   @raise Error if a name exists in [into] with a different kind. *)
let merge ~into (src : table) =
  Hashtbl.iter
    (fun name m ->
      match m with
      | M_counter c -> Counter.add (counter_in into name) (Counter.get c)
      | M_gauge g -> Gauge.add (gauge_in into name) (Gauge.get g)
      | M_histogram h -> Histogram.merge ~into:(histogram_in into name) h)
    src

let sorted_table_items (tbl : table) =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let sorted_items () = sorted_table_items registry

(* Name -> value view of every counter (sorted); the unit of counter
   delta attribution: snapshot before a region, snapshot after, diff. *)
let counters () =
  List.filter_map
    (fun (k, m) -> match m with M_counter c -> Some (k, c.Counter.v) | _ -> None)
    (sorted_items ())

(* Nonzero deltas of [after] relative to [before] (missing names in
   [before] count from 0). *)
let diff_counters ~before ~after =
  List.filter_map
    (fun (k, v) ->
      let v0 = match List.assoc_opt k before with Some v0 -> v0 | None -> 0 in
      if v - v0 <> 0 then Some (k, v - v0) else None)
    after

let reset_table (tbl : table) =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | M_counter c -> Counter.set c 0
      | M_gauge g -> Gauge.set g 0.
      | M_histogram h -> Histogram.reset h)
    tbl

(* --- export ----------------------------------------------------------- *)

let metric_to_json = function
  | M_counter c -> Json.Int c.Counter.v
  | M_gauge g -> Json.Float g.Gauge.v
  | M_histogram h ->
    Json.Obj
      [ ("count", Json.Int (Histogram.count h));
        ("sum", Json.Float (Histogram.sum h));
        ("mean", Json.Float (Histogram.mean h));
        ("min", Json.Float (Histogram.min_value h));
        ("max", Json.Float (Histogram.max_value h));
        ("p50", Json.Float (Histogram.quantile h 0.5));
        ("p95", Json.Float (Histogram.quantile h 0.95));
        ("p99", Json.Float (Histogram.quantile h 0.99)) ]

let to_json () = Json.Obj (List.map (fun (k, m) -> (k, metric_to_json m)) (sorted_items ()))

let pp ppf () =
  List.iter
    (fun (k, m) ->
      match m with
      | M_counter c -> Format.fprintf ppf "%-36s %d@." k c.Counter.v
      | M_gauge g -> Format.fprintf ppf "%-36s %.6f@." k g.Gauge.v
      | M_histogram h ->
        if Histogram.count h > 0 then
          Format.fprintf ppf "%-36s n=%d mean=%.6fs p50=%.6fs p95=%.6fs p99=%.6fs max=%.6fs@." k
            (Histogram.count h) (Histogram.mean h)
            (Histogram.quantile h 0.5) (Histogram.quantile h 0.95) (Histogram.quantile h 0.99)
            (Histogram.max_value h))
    (sorted_items ())
