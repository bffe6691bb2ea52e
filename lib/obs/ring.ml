(* A bounded log: the newest [capacity] entries behind one mutex.

   Every entry is numbered when it is pushed, from 1 up.  A number is
   never reused, not even after [clear], so a [mark] taken before a
   clear still selects only later entries.  The trace's span and
   counter logs, the event log, the time-series samples and the RQL
   progress registry are each one of these, written from any domain. *)

type 'a t = {
  slots : 'a option array;
  mutable next : int; (* the number the next entry gets *)
  mutable first : int; (* the first number pushed since the last clear *)
  mu : Mutex.t;
}

let create capacity =
  { slots = Array.make capacity None; next = 1; first = 1; mu = Mutex.create () }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* Build the next entry from its number and keep it, overwriting the
   oldest when the ring is full. *)
let push t make =
  locked t (fun () ->
      let n = t.next in
      let e = make n in
      t.slots.(n mod Array.length t.slots) <- Some e;
      t.next <- n + 1;
      e)

let mark t = locked t (fun () -> t.next)

(* The kept entries numbered [m] or later, oldest first. *)
let since t m =
  locked t (fun () ->
      let cap = Array.length t.slots in
      let lo = max m (max t.first (t.next - cap)) in
      List.init (max 0 (t.next - lo)) (fun k -> Option.get t.slots.((lo + k) mod cap)))

let to_list t = since t 0

let clear t =
  locked t (fun () ->
      Array.fill t.slots 0 (Array.length t.slots) None;
      t.first <- t.next)
