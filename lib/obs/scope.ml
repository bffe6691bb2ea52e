(* Hierarchical metric scopes.

   A scope is a lightweight registry node: a named table of counters /
   gauges / histograms with a parent pointer.  The process-wide
   {!Metrics} registry is the *root* scope's table, so "global metrics"
   and "root scope" are the same storage — Storage.Stats and
   Sqldb.Exec_stats only name handles into it.

   Charging is eager: an increment through a scope {!counter} handle
   always bumps the pre-looked-up root metric (one mutable-field write,
   same as before scopes existed) and, when a non-root scope is active,
   the local metric of every scope on the chain from the active scope up
   to (excluding) the root.  A scope's local totals are therefore
   subtree-inclusive, and the root is exact by construction.  Handles
   cache the resolved chain per active scope, so the unscoped hot path
   costs one extra physical-equality test.

   Attribution labels ride alongside: the executor marks the table being
   scanned and the Retro layer marks the snapshot being read, and every
   page read is charged to a (table, snapshot) *heat cell* in the root
   and each active scope.  The same code path that increments the page
   counters fills the cells, with fallback labels ("" / -1) for reads
   outside any scan, so the root heat matrix partitions the global
   [storage.page_reads] counter exactly — nothing double-counted,
   nothing lost.

   Scope lifecycle: {!drop} detaches a scope from the tree; its
   distribution is folded (via {!Metrics.merge}) into a synthetic
   "(dropped)" bucket under its parent so the roll-up keeps the detail
   without retaining stale child rows.  {!reset_all} zeroes the
   registry, every scope's local table and all heat cells, and
   {!to_prometheus} exports the registry with per-scope samples and the
   heat matrix: this is the one module that sees both the registry and
   the scope tree. *)

module M = Metrics

type heat_cell = { mutable ht_db : int; mutable ht_pagelog : int }

type t = {
  sc_id : int;
  sc_name : string;
  sc_parent : t option;
  sc_depth : int;
  sc_metrics : M.table; (* for the root: the process registry itself *)
  sc_heat : (string * int, heat_cell) Hashtbl.t;
  mutable sc_children : t list;
  mutable sc_live : bool;
}

let root =
  { sc_id = 0;
    sc_name = "root";
    sc_parent = None;
    sc_depth = 0;
    sc_metrics = M.registry;
    sc_heat = Hashtbl.create 64;
    sc_children = [];
    sc_live = true }

(* lint: allow — guarded by [mu]: ids are only drawn inside [create] *)
let next_id = ref 1

(* Guards structural mutation shared across domains: the scope tree
   (id allocation, child lists) and every heat-cell table.  Counter
   increments stay lock-free — a plain mutable-field add is word-atomic
   in OCaml 5 (no torn values; a lost increment under contention is the
   documented precision trade, matching plain Metrics counters). *)
let mu = Mutex.create ()

(* All [mu] sections go through this guard (the lock-discipline lint
   rule keys on the [Fun.protect] spelling). *)
let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* The active scope: engine entry points set it from the handle's scope
   for the duration of a statement.  Domain-local, so concurrent AS OF
   readers on separate domains each carry their own ambient scope. *)
let current = Domain.DLS.new_key (fun () -> root)

(* Ambient attribution labels for heat cells: the table being scanned
   ("" = none) and the snapshot being read (-1 = current state). *)
let cur_table = Domain.DLS.new_key (fun () -> "")
let cur_snap = Domain.DLS.new_key (fun () -> -1)

let create_unlocked ?(parent = root) name =
  let s =
    { sc_id = !next_id;
      sc_name = name;
      sc_parent = Some parent;
      sc_depth = parent.sc_depth + 1;
      sc_metrics = M.make_table ();
      sc_heat = Hashtbl.create 16;
      sc_children = [];
      sc_live = true }
  in
  incr next_id;
  parent.sc_children <- s :: parent.sc_children;
  s

let create ?parent name = locked (fun () -> create_unlocked ?parent name)

let id s = s.sc_id
let scope_name s = s.sc_name
let parent_id s = match s.sc_parent with None -> -1 | Some p -> p.sc_id
let depth s = s.sc_depth
let is_live s = s.sc_live
let is_root s = s == root
let current_id () = (Domain.DLS.get current).sc_id

let with_scope s f =
  let prev = Domain.DLS.get current in
  Domain.DLS.set current s;
  match f () with
  | r ->
    Domain.DLS.set current prev;
    r
  | exception e ->
    Domain.DLS.set current prev;
    raise e

let with_table name f =
  let prev = Domain.DLS.get cur_table in
  Domain.DLS.set cur_table name;
  match f () with
  | r ->
    Domain.DLS.set cur_table prev;
    r
  | exception e ->
    Domain.DLS.set cur_table prev;
    raise e

let with_snapshot sid f =
  let prev = Domain.DLS.get cur_snap in
  Domain.DLS.set cur_snap sid;
  match f () with
  | r ->
    Domain.DLS.set cur_snap prev;
    r
  | exception e ->
    Domain.DLS.set cur_snap prev;
    raise e

(* --- scoped metric handles --------------------------------------------- *)

(* The chain of local metrics for the scopes from [s] up to (excluding)
   the root, resolved once per (handle, active-scope) pair. *)
let build_chain make name s =
  let rec go s acc =
    match s.sc_parent with None -> acc | Some p -> go p (make s.sc_metrics name :: acc)
  in
  Array.of_list (go s [])

(* Every handle caches its resolved chain per domain: with parallel
   reader domains each under its own scope, a shared cache slot would
   race and charge one domain's increments to another domain's scope. *)
type 'm chain_cache = (t * 'm array) ref Domain.DLS.key

let chain_cache () : _ chain_cache = Domain.DLS.new_key (fun () -> ref (root, [||]))

(* The chain of [s] for a handle, rebuilt only when this domain's
   active scope changed since its last charge. *)
let cached_chain cache make name s =
  let c = Domain.DLS.get cache in
  let cs, chain = !c in
  if cs == s then chain
  else begin
    let chain = build_chain make name s in
    c := (s, chain);
    chain
  end

type counter = {
  cn_name : string;
  cn_root : M.Counter.t;
  cn_cache : M.Counter.t chain_cache;
}

let counter name = { cn_name = name; cn_root = M.counter name; cn_cache = chain_cache () }

let add h n =
  M.Counter.add h.cn_root n;
  let s = Domain.DLS.get current in
  if s != root then
    Array.iter (fun c -> M.Counter.add c n) (cached_chain h.cn_cache M.counter_in h.cn_name s)

let incr h = add h 1
let get h = M.Counter.get h.cn_root

(* Root-level assignment; scope locals are zeroed by [reset_all], not
   here. *)
let set h n = M.Counter.set h.cn_root n

(* [h]'s local total in scope [s]: subtree-inclusive for a child scope,
   the process total for the root.  Exact when one domain drives [s]. *)
let get_in s h = if s == root then get h else M.Counter.get (M.counter_in s.sc_metrics h.cn_name)

type gauge = {
  ga_name : string;
  ga_root : M.Gauge.t;
  ga_cache : M.Gauge.t chain_cache;
}

let gauge name = { ga_name = name; ga_root = M.gauge name; ga_cache = chain_cache () }

let gauge_add h x =
  M.Gauge.add h.ga_root x;
  let s = Domain.DLS.get current in
  if s != root then
    Array.iter (fun g -> M.Gauge.add g x) (cached_chain h.ga_cache M.gauge_in h.ga_name s)

let gauge_get h = M.Gauge.get h.ga_root

let gauge_get_in s h =
  if s == root then gauge_get h else M.Gauge.get (M.gauge_in s.sc_metrics h.ga_name)

type histogram = {
  hi_name : string;
  hi_root : M.Histogram.t;
  hi_cache : M.Histogram.t chain_cache;
}

let histogram name = { hi_name = name; hi_root = M.histogram name; hi_cache = chain_cache () }

let observe h v =
  M.Histogram.observe h.hi_root v;
  let s = Domain.DLS.get current in
  if s != root then
    Array.iter
      (fun hg -> M.Histogram.observe hg v)
      (cached_chain h.hi_cache M.histogram_in h.hi_name s)

(* --- page-read heat ---------------------------------------------------- *)

type io = Db_read | Archive_read

(* Combined page-read total (current-state + archive): the counter the
   root heat matrix partitions exactly. *)
let c_page_reads = counter "storage.page_reads"

let heat_cell sc key =
  match Hashtbl.find_opt sc.sc_heat key with
  | Some c -> c
  | None ->
    let c = { ht_db = 0; ht_pagelog = 0 } in
    Hashtbl.replace sc.sc_heat key c;
    c

(* A page read of kind [io] through handle [h]: bumps the per-device
   counter and the combined total (both scope-charged), then fills the
   (table, snapshot) heat cell of the root and of every active scope —
   one code path, so attribution cannot drift from the counters. *)
let page_read io h =
  incr h;
  incr c_page_reads;
  let key = (Domain.DLS.get cur_table, Domain.DLS.get cur_snap) in
  let charge sc =
    let c = heat_cell sc key in
    match io with
    | Db_read -> c.ht_db <- c.ht_db + 1
    | Archive_read -> c.ht_pagelog <- c.ht_pagelog + 1
  in
  (* Heat tables are shared Hashtbls: serialize cell creation/update. *)
  locked (fun () ->
      charge root;
      let rec up s = match s.sc_parent with None -> () | Some _ -> charge s; up (Option.get s.sc_parent) in
      up (Domain.DLS.get current))

(* --- lifecycle --------------------------------------------------------- *)

let dropped_bucket_name = "(dropped)"

let dropped_bucket parent =
  match List.find_opt (fun c -> c.sc_name = dropped_bucket_name) parent.sc_children with
  | Some b -> b
  | None -> create_unlocked ~parent dropped_bucket_name

let rec detach s =
  s.sc_live <- false;
  List.iter detach s.sc_children;
  s.sc_children <- []

(* Detach [s] from the tree.  Its local totals (subtree-inclusive, so
   its children's too) are merged into the parent's "(dropped)" bucket;
   every ancestor — the root in particular — already holds them via
   eager roll-up, so dropping a scope never loses counts. *)
let drop s =
  match s.sc_parent with
  | None -> invalid_arg "Scope.drop: cannot drop the root scope"
  | Some p ->
    locked @@ fun () ->
    if s.sc_live then begin
      p.sc_children <- List.filter (fun c -> c != s) p.sc_children;
      let b = dropped_bucket p in
      M.merge ~into:b.sc_metrics s.sc_metrics;
      Hashtbl.iter
        (fun key (c : heat_cell) ->
          let d = heat_cell b key in
          d.ht_db <- d.ht_db + c.ht_db;
          d.ht_pagelog <- d.ht_pagelog + c.ht_pagelog)
        s.sc_heat;
      detach s;
      if Domain.DLS.get current == s then Domain.DLS.set current root
    end

(* Registry-wide reset: the root registry, every scope's local table
   and all heat cells, so sys_scopes reports zeroed children after a
   reset, never stale totals. *)
let reset_all () =
  let rec zero s =
    M.reset_table s.sc_metrics;
    Hashtbl.reset s.sc_heat;
    List.iter zero s.sc_children
  in
  locked (fun () -> zero root)

(* --- introspection (sys_scopes / sys_heat) -------------------------------- *)

let rec fold_scopes f acc s = List.fold_left (fold_scopes f) (f acc s) s.sc_children

(* Every scope in the tree, root first, parents before children. *)
let scopes () =
  locked (fun () -> List.rev (fold_scopes (fun acc s -> s :: acc) [] root))

let metric_items s = M.sorted_table_items s.sc_metrics

(* ((table, snapshot), db_reads, archive_reads) rows, sorted. *)
let heat_items s =
  let items =
    locked (fun () ->
        Hashtbl.fold (fun key c acc -> (key, c.ht_db, c.ht_pagelog) :: acc) s.sc_heat [])
  in
  List.sort compare items

let heat_total s =
  locked (fun () -> Hashtbl.fold (fun _ c acc -> acc + c.ht_db + c.ht_pagelog) s.sc_heat 0)

let page_reads_total () = get c_page_reads

(* --- Prometheus text exposition ---------------------------------------- *)

(* Registry names are dotted ("sql.stmt_latency"); Prometheus names are
   [a-zA-Z_:][a-zA-Z0-9_:]*.  Dots (and any other illegal character)
   become underscores, and everything is prefixed "rql_". *)
let prom_name name =
  let b = Bytes.of_string name in
  Bytes.iteri
    (fun i c ->
      let ok =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
      in
      if not ok then Bytes.set b i '_')
    b;
  "rql_" ^ Bytes.to_string b

(* Label values are free-form (scope and table names): the text
   exposition format requires backslash, double-quote and newline to be
   escaped inside the quoted value. *)
let prom_label_value v =
  let buf = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

(* Render a label set as [{k="v",...}]; label *names* share the metric-
   name grammar, so they go through the same sanitizer (minus the
   prefix). *)
let prom_labels = function
  | [] -> ""
  | kvs ->
    let clean_key k =
      let pk = prom_name k in
      String.sub pk 4 (String.length pk - 4)
    in
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" (clean_key k) (prom_label_value v)) kvs)
    ^ "}"

let prom_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let scope_labels s =
  [ ("scope", s.sc_name); ("scope_id", string_of_int s.sc_id) ]

(* A child scope's own value of a counter or gauge. *)
let local_value s name =
  match Hashtbl.find_opt s.sc_metrics name with
  | Some (M.M_counter c) -> Some (float_of_int (M.Counter.get c))
  | Some (M.M_gauge g) -> Some (M.Gauge.get g)
  | Some (M.M_histogram _) | None -> None

(* The registry in Prometheus text exposition format: counters and
   gauges as one root sample followed by one scope-labeled sample per
   child scope that holds the metric (inside the family: the format
   groups a family's samples); histograms with cumulative [_bucket]
   series at decade bounds plus [_sum]/[_count]; then the heat matrix
   as its own family. *)
let to_prometheus () =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  let all = scopes () in
  let children = List.filter (fun s -> s != root) all in
  List.iter
    (fun (name, m) ->
      let pn = prom_name name in
      let scoped () =
        List.iter
          (fun s ->
            Option.iter
              (fun v -> line "%s%s %s" pn (prom_labels (scope_labels s)) (prom_float v))
              (local_value s name))
          children
      in
      match m with
      | M.M_counter c ->
        line "# TYPE %s counter" pn;
        line "%s %d" pn (M.Counter.get c);
        scoped ()
      | M.M_gauge g ->
        line "# TYPE %s gauge" pn;
        line "%s %s" pn (prom_float (M.Gauge.get g));
        scoped ()
      | M.M_histogram h ->
        line "# TYPE %s histogram" pn;
        List.iter
          (fun (bound, cum) -> line "%s_bucket{le=\"%s\"} %d" pn (prom_float bound) cum)
          (M.Histogram.cumulative_buckets h);
        line "%s_bucket{le=\"+Inf\"} %d" pn (M.Histogram.count h);
        line "%s_sum %s" pn (prom_float (M.Histogram.sum h));
        line "%s_count %d" pn (M.Histogram.count h))
    (M.sorted_items ());
  line "# TYPE rql_page_reads_heat counter";
  List.iter
    (fun s ->
      List.iter
        (fun ((tbl, snap), db, pl) ->
          let sample device n =
            if n > 0 then
              line "rql_page_reads_heat%s %d"
                (prom_labels
                   (scope_labels s
                   @ [ ("table", if tbl = "" then "-" else tbl);
                       ("snapshot", string_of_int snap);
                       ("device", device) ]))
                n
          in
          sample "db" db;
          sample "pagelog" pl)
        (heat_items s))
    all;
  Buffer.contents buf

let write_prometheus ~path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      output_string oc (to_prometheus ()))
