(* Reference model of the heap's insert placement: [Storage.Heap] as it
   was before the free-space map got its first-fit index, when an
   insert found its page by walking the map with [Hashtbl.iter] until a
   binding had room.  Kept verbatim in structure so the indexed heap
   can be run in lockstep with it (test_heap): the same operations on
   two pagers must give the same rids and the same page bytes. *)

open Storage

type t = {
  first_page : int;
  mutable tail_hint : int;                 (* last page of the chain, as last observed *)
  mutable fsm : (int, int) Hashtbl.t option; (* pid -> free-byte estimate *)
  mutable last_txn : Txn.t option;         (* the transaction that last wrote through it *)
}

let fsm_threshold = 64 (* pages with at least this much space are insert candidates *)

let rid_of ~pid ~slot = (pid lsl 12) lor slot
let pid_of_rid rid = rid lsr 12
let slot_of_rid rid = rid land 0xfff

let create txn =
  let pid = Txn.alloc txn Page.Heap_page in
  { first_page = pid; tail_hint = pid; fsm = None; last_txn = None }

let open_existing first_page = { first_page; tail_hint = first_page; fsm = None; last_txn = None }

let first_page t = t.first_page

let page_free p = Page.free_space p + Page.dead_bytes p

(* Once the transaction that last wrote through the handle has
   aborted, the handle forgets its map and tail hint, as the heap
   does. *)
let forget_aborted t =
  match t.last_txn with
  | Some last when Txn.aborted last ->
    t.fsm <- None;
    t.tail_hint <- t.first_page;
    t.last_txn <- None
  | _ -> ()

let touch txn t =
  forget_aborted t;
  t.last_txn <- Some txn

(* Build the FSM with one chain walk; also refreshes the tail hint. *)
let build_fsm (read : Pager.read) t =
  let fsm = Hashtbl.create 64 in
  let rec go pid =
    let p = read pid in
    let free = page_free p in
    if free >= fsm_threshold then Hashtbl.replace fsm pid free;
    let next = Page.next p in
    if next < 0 then t.tail_hint <- pid else go next
  in
  go t.first_page;
  t.fsm <- Some fsm;
  fsm

let get_fsm read t = match t.fsm with Some f -> f | None -> build_fsm read t

let fsm_bindings read t =
  forget_aborted t;
  List.sort compare (Hashtbl.fold (fun pid free acc -> (pid, free) :: acc) (get_fsm read t) [])

let fsm_note t pid free =
  match t.fsm with
  | None -> ()
  | Some fsm ->
    if free >= fsm_threshold then Hashtbl.replace fsm pid free else Hashtbl.remove fsm pid

(* Find the real tail starting from the hint (the chain only grows). *)
let find_tail (read : Pager.read) t =
  let rec go pid =
    let p = read pid in
    let next = Page.next p in
    if next < 0 then pid else go next
  in
  let tail = go t.tail_hint in
  t.tail_hint <- tail;
  tail

exception Found of int

(* A page whose FSM estimate can hold [len] more bytes. *)
let candidate fsm len =
  try
    Hashtbl.iter (fun pid free -> if free >= len + Page.slot_bytes then raise (Found pid)) fsm;
    None
  with Found pid -> Some pid

let insert txn t (data : string) =
  touch txn t;
  let len = String.length data in
  let try_page pid =
    let image = Txn.read txn pid in
    if Page.can_insert image len then begin
      match Page.insert_free (Txn.write txn pid) data with
      | Some (slot, free) ->
        fsm_note t pid free;
        Some (rid_of ~pid ~slot)
      | None -> None
    end
    else None
  in
  let read = Txn.read_ctx txn in
  let fsm = get_fsm read t in
  let rec from_fsm () =
    match candidate fsm len with
    | None -> None
    | Some pid -> (
      match try_page pid with
      | Some rid -> Some rid
      | None ->
        (* stale estimate: drop and retry *)
        Hashtbl.remove fsm pid;
        from_fsm ())
  in
  match from_fsm () with
  | Some rid -> rid
  | None -> (
    let tail = find_tail read t in
    match try_page tail with
    | Some rid -> rid
    | None ->
      let fresh = Txn.alloc txn Page.Heap_page in
      let tail_page = Txn.write txn tail in
      Page.set_next tail_page fresh;
      t.tail_hint <- fresh;
      (match Page.insert_free (Txn.write txn fresh) data with
      | Some (slot, free) ->
        fsm_note t fresh free;
        rid_of ~pid:fresh ~slot
      | None -> invalid_arg "Heap.insert: record larger than a page"))

let get_span (read : Pager.read) _t rid ~f =
  let pid = pid_of_rid rid and slot = slot_of_rid rid in
  let p = read pid in
  if slot >= Page.nslots p || not (Page.live p slot) then None
  else Some (f p (Page.slot_off p slot) (Page.slot_len p slot))

let get read t rid = get_span read t rid ~f:(fun p off len -> Bytes.sub_string p off len)

let write_span txn t rid ~f =
  touch txn t;
  get_span (Txn.write txn) t rid ~f

let delete txn t rid =
  touch txn t;
  let pid = pid_of_rid rid and slot = slot_of_rid rid in
  let p = Txn.write txn pid in
  let ok = Page.delete p slot in
  if ok then fsm_note t pid (page_free p);
  ok

(* In-place when possible; otherwise delete + reinsert (rid changes). *)
let update txn t rid data =
  touch txn t;
  let pid = pid_of_rid rid and slot = slot_of_rid rid in
  let p = Txn.write txn pid in
  (* a record rewritten at its own length leaves the page's free space
     as it was: no FSM note, which would walk every slot *)
  let same_len =
    slot < Page.nslots p && Page.live p slot && Page.slot_len p slot = String.length data
  in
  if Page.update p slot data then begin
    if not same_len then fsm_note t pid (page_free p);
    `Same
  end
  else begin
    ignore (Page.delete p slot);
    fsm_note t pid (page_free p);
    `Moved (insert txn t data)
  end

let iter_spans (read : Pager.read) t ~f =
  let rec go pid =
    let p = read pid in
    Page.iter_spans p ~f:(fun slot off len -> f (rid_of ~pid ~slot) p off len);
    let next = Page.next p in
    if next >= 0 then go next
  in
  go t.first_page

let iter read t ~f = iter_spans read t ~f:(fun rid p off len -> f rid (Bytes.sub_string p off len))

(* Iteration with early exit: [f] returns [false] to stop. *)
let iter_while (read : Pager.read) t ~f =
  let exception Stop in
  try
    let rec go pid =
      let p = read pid in
      (try
         Page.iter p ~f:(fun slot data ->
             if not (f (rid_of ~pid ~slot) data) then raise Stop)
       with Stop -> raise Stop);
      let next = Page.next p in
      if next >= 0 then go next
    in
    go t.first_page
  with Stop -> ()

let count (read : Pager.read) t =
  let n = ref 0 in
  iter read t ~f:(fun _ _ -> incr n);
  !n

(* Number of pages in the chain (memory/size experiments). *)
let page_count (read : Pager.read) t =
  let rec go pid acc =
    let p = read pid in
    let next = Page.next p in
    if next < 0 then acc + 1 else go next (acc + 1)
  in
  go t.first_page 0

(* Release every page of the chain (DROP TABLE). *)
let drop txn t =
  let read = Txn.read_ctx txn in
  let rec go pid =
    let next = Page.next (read pid) in
    Txn.free txn pid;
    if next >= 0 then go next
  in
  go t.first_page;
  t.fsm <- None;
  t.last_txn <- None
