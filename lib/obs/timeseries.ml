(* Bounded time-series sampler over the metrics registry.

   A sample is a flat (name -> float) snapshot of every counter and
   gauge, plus count / sum / p99 summaries of every histogram, stamped
   with a wall-clock timestamp and a monotone sequence number.  Samples
   land in a bounded ring (oldest overwritten), so a long-running
   process carries a fixed-size perf trajectory that the engine can
   query back out through the [sys_timeseries] virtual table and the
   benchmark harness embeds in its --json report.

   Sampling is driven by [tick], called once per executed SQL statement:
   every [interval] ticks one sample is taken.  [interval = 0] disables
   automatic sampling; [sample_now] always works. *)

type sample = {
  seq : int;                      (* monotone sample number *)
  ts : float;                     (* Unix.gettimeofday at capture *)
  values : (string * float) list; (* sorted by name *)
}

let default_capacity = 512

type ring = {
  mutable slots : sample option array;
  mutable taken : int;        (* total samples ever taken *)
  mutable interval : int;     (* sample every N ticks; 0 = off *)
  mutable ticks : int;        (* statements since the last sample *)
}

let ring =
  { slots = Array.make default_capacity None; taken = 0; interval = 0; ticks = 0 }

let capacity () = Array.length ring.slots

let set_capacity n =
  if n < 1 then invalid_arg "Timeseries.set_capacity";
  ring.slots <- Array.make n None;
  ring.taken <- 0

let interval () = ring.interval

let set_interval n =
  if n < 0 then invalid_arg "Timeseries.set_interval";
  ring.interval <- n;
  ring.ticks <- 0

let clear () =
  Array.fill ring.slots 0 (Array.length ring.slots) None;
  ring.taken <- 0;
  ring.ticks <- 0

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
  let s = { seq = ring.taken; ts = Unix.gettimeofday (); values = capture_values () } in
  ring.slots.(ring.taken mod Array.length ring.slots) <- Some s;
  ring.taken <- ring.taken + 1;
  s

(* One statement executed; samples when the interval elapses. *)
let tick () =
  if ring.interval > 0 then begin
    ring.ticks <- ring.ticks + 1;
    if ring.ticks >= ring.interval then begin
      ring.ticks <- 0;
      ignore (sample_now ())
    end
  end

(* Buffered samples, oldest first. *)
let samples () =
  let out = ref [] in
  Array.iter (fun slot -> match slot with Some s -> out := s :: !out | None -> ()) ring.slots;
  List.sort (fun a b -> compare a.seq b.seq) !out

let sample_to_json s =
  Json.Obj
    [ ("seq", Json.Int s.seq);
      ("ts", Json.Float s.ts);
      ("values", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) s.values)) ]

let to_json () = Json.List (List.map sample_to_json (samples ()))
