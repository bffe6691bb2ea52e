(* Bounded time-series sampler over the metrics registry.

   A sample is a flat (name -> float) snapshot of every counter and
   gauge, plus count / sum / p99 summaries of every histogram, stamped
   with a wall-clock timestamp and the {!Ring}'s sequence number.  The
   newest [capacity] samples are kept, so a long-running process
   carries a fixed-size perf trajectory that the engine can query back
   out through the [sys_timeseries] virtual table and the benchmark
   harness embeds in its --json report.

   Sampling is driven by [tick], called once per executed SQL statement
   (from any domain): every [interval]-th tick takes one sample.
   [interval = 0] disables automatic sampling; [sample_now] always
   works. *)

type sample = {
  seq : int;                      (* from 1, never reused *)
  ts : float;                     (* Unix.gettimeofday at capture *)
  values : (string * float) list; (* sorted by name *)
}

let capacity = 512
let ring : sample Ring.t = Ring.create capacity
let interval = Atomic.make 0 (* sample every N ticks; 0 = off *)
let ticks = Atomic.make 0 (* ticks since [set_interval] or [clear] *)

let set_interval n =
  if n < 0 then invalid_arg "Timeseries.set_interval";
  Atomic.set interval n;
  Atomic.set ticks 0

let clear () =
  Ring.clear ring;
  Atomic.set ticks 0

(* Flatten the registry into (name, float) pairs. *)
let capture_values () =
  List.concat_map
    (fun (name, m) ->
      match m with
      | Metrics.M_counter c -> [ (name, float_of_int (Metrics.Counter.get c)) ]
      | Metrics.M_gauge g -> [ (name, Metrics.Gauge.get g) ]
      | Metrics.M_histogram h ->
        [ (name ^ ".count", float_of_int (Metrics.Histogram.count h));
          (name ^ ".sum", Metrics.Histogram.sum h);
          (name ^ ".p99", Metrics.Histogram.quantile h 0.99) ])
    (Metrics.sorted_items ())

let sample_now () =
  let ts = Unix.gettimeofday () and values = capture_values () in
  Ring.push ring (fun seq -> { seq; ts; values })

(* One statement executed; samples on every [interval]-th tick. *)
let tick () =
  let n = Atomic.get interval in
  if n > 0 && (Atomic.fetch_and_add ticks 1 + 1) mod n = 0 then ignore (sample_now ())

(* Kept samples, oldest first. *)
let samples () = Ring.to_list ring

let sample_to_json s =
  Json.Obj
    [ ("seq", Json.Int s.seq);
      ("ts", Json.Float s.ts);
      ("values", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) s.values)) ]

let to_json () = Json.List (List.map sample_to_json (samples ()))
