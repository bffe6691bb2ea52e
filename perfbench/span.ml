(* In-memory span recorder for the traced run.

   Spans are recorded by the benchmark's own code around its calls into
   the library, never inside the library: a span is (name, id, parent,
   start, duration) plus its self time, i.e. its duration minus the
   part covered by child spans opened on the same domain.  Spans stay
   in memory until the run ends and are then summarised per name and
   written out as a Chrome trace.  With tracing off, [timed] still
   measures the call (one clock read on each side) but records nothing. *)

type span = {
  name : string;
  id : int;
  parent : int; (* 0 = top level *)
  domain : int;
  start_s : float;
  dur_s : float;
  self_s : float;
}

type frame = { f_id : int; mutable f_child_s : float }

let enabled = ref false
let next_id = Atomic.make 1
let mu = Mutex.create ()
let finished : span list ref = ref []
let stack : frame list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

(* Per-domain switch: [without] silences this domain only, so an
   untraced op can run beside another domain that keeps recording. *)
let quiet : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let record s =
  Mutex.lock mu;
  finished := s :: !finished;
  Mutex.unlock mu

(* Run [f], returning its result and its wall time in seconds; when
   tracing is on, also record a span named [name]. *)
let timed name f =
  if (not !enabled) || Domain.DLS.get quiet then begin
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  end
  else begin
    let outer = Domain.DLS.get stack in
    let fr = { f_id = Atomic.fetch_and_add next_id 1; f_child_s = 0. } in
    Domain.DLS.set stack (fr :: outer);
    let t0 = Unix.gettimeofday () in
    let close () =
      let dur = Unix.gettimeofday () -. t0 in
      Domain.DLS.set stack outer;
      (match outer with p :: _ -> p.f_child_s <- p.f_child_s +. dur | [] -> ());
      record
        { name;
          id = fr.f_id;
          parent = (match outer with p :: _ -> p.f_id | [] -> 0);
          domain = (Domain.self () :> int);
          start_s = t0;
          dur_s = dur;
          self_s = dur -. fr.f_child_s };
      dur
    in
    match f () with
    | r -> (r, close ())
    | exception e ->
      ignore (close ());
      raise e
  end

let with_span name f = fst (timed name f)

let without f =
  let was = Domain.DLS.get quiet in
  Domain.DLS.set quiet true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set quiet was) f

let all () =
  Mutex.lock mu;
  let l = !finished in
  Mutex.unlock mu;
  List.rev l

(* Per-name (count, total seconds, self seconds). *)
let summary () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let n, tot, self =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0., 0.)
      in
      Hashtbl.replace tbl s.name (n + 1, tot +. s.dur_s, self +. s.self_s))
    (all ());
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Chrome trace-event JSON ("X" complete events, microseconds). *)
let write_chrome path =
  let spans = all () in
  let t0 = List.fold_left (fun m s -> Float.min m s.start_s) Float.infinity spans in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\
         \"args\":{\"id\":%d,\"parent\":%d,\"self_us\":%.3f}}"
        (if i = 0 then "" else ",")
        s.name s.domain
        ((s.start_s -. t0) *. 1e6)
        (s.dur_s *. 1e6) s.id s.parent (s.self_s *. 1e6))
    spans;
  output_string oc "\n]}\n";
  close_out oc
