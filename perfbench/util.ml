(* Shared helpers: clock, order statistics, registry-counter snapshots. *)

let now = Unix.gettimeofday

(* Linear-interpolated quantile of an unsorted sample (q in [0, 1]). *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio a b = if b = 0. then 0. else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)

(* Every counter of a metric scope (the root scope is the process
   registry).  Only the domain driving a session's scope increments that
   scope's counters, so a session snapshot is exact even while other
   domains run; root counters shared by several domains can drop
   increments. *)
type counters = (string * int) list

let counters_of sc : counters =
  List.filter_map
    (fun (name, m) ->
      match m with Obs.Metrics.M_counter c -> Some (name, Obs.Metrics.Counter.get c) | _ -> None)
    (Obs.Scope.metric_items sc)

let counters () = counters_of Obs.Scope.root
let count (k : counters) name = Option.value (List.assoc_opt name k) ~default:0
let no_counters : counters = []

(* [after - before], and the fieldwise sum of two deltas. *)
let delta ~before ~(after : counters) : counters =
  List.map (fun (n, v) -> (n, v - count before n)) after

let add_counters (a : counters) (b : counters) : counters =
  List.map (fun (n, v) -> (n, v + count a n)) b
  @ List.filter (fun (n, _) -> not (List.mem_assoc n b)) a

let heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)) /. 1e6

(* Modeled time and wall time stay apart: no timed phase may run with
   the simulated device sleeping for real. *)
let assert_cpu_only () =
  if !Storage.Stats.Cost_model.real_read_latency then
    failwith "real_read_latency is on during a timed phase"
