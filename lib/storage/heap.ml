(* Heap files: page chains holding serialized rows.

   A table's rows live on a chain of slotted pages linked through the
   page header's [next] field; the chain head is recorded in the catalog,
   so a query running AS OF a snapshot follows the chain as it existed in
   that snapshot.  Row ids encode (page id, slot) and are stable across
   in-place updates.

   A heap handle carries an in-memory free-space map (FSM), built lazily
   by one chain scan and maintained on every insert/delete/update through
   the handle, so deleted space is found by later inserts and the chain
   only grows when the table really does (the storage manager behaviour
   the paper's update workloads rely on).  The FSM is advisory: the page
   itself is re-checked before use, so a stale entry costs a lookup, not
   correctness.

   An insert takes the first FSM binding, in [Hashtbl.iter] order, with
   room for the row.  A long-lived table's FSM holds mostly pages too
   full for that, so rather than walk past them the handle finds the
   binding with one descent of a first-fit index kept beside the map. *)

(* The FSM's bindings in [Hashtbl.iter] order, built by one iteration,
   with a max tree over their free bytes and a map from pid to leaf
   (the handle's [leaf] array, which outlives each index so that a
   rebuild costs the number of bindings, not the highest pid).

   It stays exact because of how the stdlib table moves its cells:
   [Hashtbl.replace] of a present key overwrites that key's cell in
   place, and [Hashtbl.remove] unlinks one cell; neither moves any other
   binding.  Only adding a key reorders the table (it prepends a cell
   to its bucket and may resize the bucket array).  So every FSM change
   does one of three things to the index: a present key's new estimate
   updates its leaf; a removed key clears its leaf and forgets the pid,
   so that its re-adding later counts as an add; an add drops the index,
   which the next insert rebuilds. *)
type index = {
  pids : int array;  (* leaf -> pid, in Hashtbl.iter order *)
  tree : int array;  (* node k's children are 2k and 2k+1; leaf i is node [width + i] *)
  width : int;       (* a power of two at least the number of bindings *)
}

(* The page the handle last wrote, in the transaction that wrote it:
   that transaction's copy, and once an insert has needed them its
   slot-directory facts.  Every write through the handle takes its page
   from here ([write_page]), so writes that follow one another on a page
   share one page lookup, and inserts one directory scan.  A handle
   writes a table's pages for one session; should another handle have
   inserted into the page in the same transaction, [Page.fill_current]
   sees it, and a delete through one only makes an insert pass up the
   dead slot or bytes it left. *)
type cursor = {
  c_txn : Txn.t;
  c_pid : int;
  c_page : Page.t;                 (* [Txn.write c_txn c_pid] *)
  mutable c_fill : Page.fill option; (* None: scan before the next insert *)
}

type t = {
  first_page : int;
  mutable tail_hint : int;                 (* last page of the chain, as last observed *)
  mutable fsm : (int, int) Hashtbl.t option; (* pid -> free-byte estimate *)
  mutable index : index option;            (* derived from [fsm]; None until the next insert *)
  mutable leaf : int array;                (* pid -> leaf of [index]; -1 for every other pid *)
  mutable cursor : cursor option;
}

let fsm_threshold = 64 (* pages with at least this much space are insert candidates *)

let rid_of ~pid ~slot = (pid lsl 12) lor slot
let pid_of_rid rid = rid lsr 12
let slot_of_rid rid = rid land 0xfff

let create txn =
  let pid = Txn.alloc txn Page.Heap_page in
  { first_page = pid; tail_hint = pid; fsm = None; index = None; leaf = [||]; cursor = None }

let open_existing first_page =
  { first_page; tail_hint = first_page; fsm = None; index = None; leaf = [||]; cursor = None }

let first_page t = t.first_page

let page_free p = Page.free_space p + Page.dead_bytes p

(* --- the first-fit index ---------------------------------------------- *)

let build_index t fsm =
  let n = Hashtbl.length fsm in
  let width = ref 1 in
  while !width < n do
    width := 2 * !width
  done;
  let width = !width in
  let pids = Array.make width (-1) and tree = Array.make (2 * width) (-1) in
  let i = ref 0 in
  Hashtbl.iter
    (fun pid free ->
      if pid >= Array.length t.leaf then begin
        let leaf = Array.make (max (pid + 1) (2 * Array.length t.leaf)) (-1) in
        Array.blit t.leaf 0 leaf 0 (Array.length t.leaf);
        t.leaf <- leaf
      end;
      pids.(!i) <- pid;
      tree.(width + !i) <- free;
      t.leaf.(pid) <- !i;
      incr i)
    fsm;
  for k = width - 1 downto 1 do
    tree.(k) <- max tree.(2 * k) tree.(2 * k + 1)
  done;
  { pids; tree; width }

let leaf_of t pid = if pid < Array.length t.leaf then t.leaf.(pid) else -1

let drop_index t =
  match t.index with
  | Some ix ->
    Array.iter (fun pid -> if pid >= 0 then t.leaf.(pid) <- -1) ix.pids;
    t.index <- None
  | None -> ()

(* Once the transaction that last wrote through the handle has aborted,
   the map, its index and the tail hint may name pages the abort gave
   back to the free list, which another structure can take: the handle
   forgets them, and the cursor, before its next use.  The cursor names
   that transaction, as every write through the handle sets it. *)
let forget_aborted t =
  match t.cursor with
  | Some c when Txn.aborted c.c_txn ->
    t.fsm <- None;
    drop_index t;
    t.tail_hint <- t.first_page;
    t.cursor <- None
  | _ -> ()

(* Set leaf [i]'s free bytes (-1: cleared) and re-max its ancestors. *)
let set_leaf ix i free =
  let tree = ix.tree in
  let k = ref (ix.width + i) in
  tree.(!k) <- free;
  while !k > 1 do
    k := !k / 2;
    tree.(!k) <- max tree.(2 * !k) tree.(2 * !k + 1)
  done

(* [pid] leaves the FSM: its leaf is cleared and the pid forgotten, so
   that its return counts as an add. *)
let fsm_remove t fsm pid =
  Hashtbl.remove fsm pid;
  match t.index with
  | Some ix ->
    let i = leaf_of t pid in
    if i >= 0 then begin
      set_leaf ix i (-1);
      t.leaf.(pid) <- -1
    end
  | None -> ()

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
  drop_index t;
  fsm

let get_fsm read t = match t.fsm with Some f -> f | None -> build_fsm read t

let fsm_bindings read t =
  forget_aborted t;
  List.sort compare (Hashtbl.fold (fun pid free acc -> (pid, free) :: acc) (get_fsm read t) [])

let fsm_note t pid free =
  match t.fsm with
  | None -> ()
  | Some fsm ->
    if free >= fsm_threshold then begin
      (match t.index with
      | Some ix ->
        let i = leaf_of t pid in
        if i >= 0 then set_leaf ix i free else drop_index t
      | None -> ());
      Hashtbl.replace fsm pid free
    end
    else fsm_remove t fsm pid

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

(* The first FSM page, in [Hashtbl.iter] order, whose estimate can hold
   [len] more bytes: the leftmost leaf of at least that much. *)
let candidate t fsm len =
  let ix =
    match t.index with
    | Some ix -> ix
    | None ->
      let ix = build_index t fsm in
      t.index <- Some ix;
      ix
  in
  let need = len + Page.slot_bytes and tree = ix.tree in
  if tree.(1) < need then None
  else begin
    let k = ref 1 in
    while !k < ix.width do
      k := if tree.(2 * !k) >= need then 2 * !k else (2 * !k) + 1
    done;
    Some ix.pids.(!k - ix.width)
  end

(* --- writes --------------------------------------------------------------- *)

(* The transaction's copy of [pid] when it is the cursor's page. *)
let cached txn t pid =
  match t.cursor with
  | Some c when c.c_pid = pid && c.c_txn == txn && Txn.is_active txn -> Some c
  | _ -> None

(* The transaction's copy of [pid], made the cursor's page: every write
   through the handle takes its page here. *)
let write_page txn t pid =
  match cached txn t pid with
  | Some c -> c
  | None ->
    let c = { c_txn = txn; c_pid = pid; c_page = Txn.write txn pid; c_fill = None } in
    t.cursor <- Some c;
    c

(* The cursor's [Page.fill], scanned when it has none or another writer
   changed the page behind it. *)
let fill_of c =
  match c.c_fill with
  | Some f when Page.fill_current c.c_page f -> f
  | _ ->
    let f = Page.fill c.c_page in
    c.c_fill <- Some f;
    f

(* The longest record a page holds: an empty page's room less its slot. *)
let max_record = Page.size - Page.header - Page.slot_bytes

(* Insert [data] on the first page, in the FSM's first-fit order, with
   room for it; else on the chain's tail; else on a fresh page linked
   after the tail.  Inserts that follow one another onto a page take its
   transaction copy and scan its slot directory once (the cursor). *)
let insert txn t data =
  let len = String.length data in
  if len > max_record then invalid_arg "Heap.insert: record larger than a page";
  forget_aborted t;
  let read pid = match cached txn t pid with Some c -> c.c_page | None -> Txn.read txn pid in
  let fsm = get_fsm read t in
  let put c =
    let fill = fill_of c in
    match Page.fill_insert c.c_page fill data with
    | Some slot ->
      fsm_note t c.c_pid (Page.fill_free c.c_page fill);
      Some (rid_of ~pid:c.c_pid ~slot)
    | None -> None
  in
  let try_page pid =
    match cached txn t pid with
    | Some c -> if Page.fill_fits c.c_page (fill_of c) len then put c else None
    | None -> if Page.can_insert (Txn.read txn pid) len then put (write_page txn t pid) else None
  in
  let rec from_fsm () =
    match candidate t fsm len with
    | None -> None
    | Some pid -> (
      match try_page pid with
      | Some rid -> Some rid
      | None ->
        (* stale estimate: drop and retry *)
        fsm_remove t fsm pid;
        from_fsm ())
  in
  match from_fsm () with
  | Some rid -> rid
  | None -> (
    let tail = find_tail read t in
    match try_page tail with
    | Some rid -> rid
    | None -> (
      let fresh = Txn.alloc txn Page.Heap_page in
      Page.set_next (write_page txn t tail).c_page fresh;
      t.tail_hint <- fresh;
      match put (write_page txn t fresh) with
      | Some rid -> rid
      | None -> invalid_arg "Heap.insert: record larger than a page"))

let get_span (read : Pager.read) _t rid ~f =
  let pid = pid_of_rid rid and slot = slot_of_rid rid in
  let p = read pid in
  if slot >= Page.nslots p || not (Page.live p slot) then None
  else Some (f p (Page.slot_off p slot) (Page.slot_len p slot))

let get read t rid = get_span read t rid ~f:(fun p off len -> Bytes.sub_string p off len)

(* Rows patched one after another on a page share one lookup of its
   transaction copy (the cursor). *)
let write_span txn t rid ~f =
  forget_aborted t;
  get_span (fun pid -> (write_page txn t pid).c_page) t rid ~f

let delete txn t rid =
  forget_aborted t;
  let pid = pid_of_rid rid and slot = slot_of_rid rid in
  let c = write_page txn t pid in
  let ok = Page.delete c.c_page slot in
  if ok then begin
    c.c_fill <- None;
    fsm_note t pid (page_free c.c_page)
  end;
  ok

(* In-place when possible; otherwise delete + reinsert (rid changes). *)
let update txn t rid data =
  forget_aborted t;
  let pid = pid_of_rid rid and slot = slot_of_rid rid in
  let c = write_page txn t pid in
  let p = c.c_page in
  (* a record rewritten at its own length leaves the page's free space
     as it was: no FSM note, which would walk every slot *)
  let same_len =
    slot < Page.nslots p && Page.live p slot && Page.slot_len p slot = String.length data
  in
  if Page.update p slot data then begin
    if not same_len then begin
      c.c_fill <- None;
      fsm_note t pid (page_free p)
    end;
    `Same
  end
  else begin
    ignore (Page.delete p slot);
    c.c_fill <- None;
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
  t.cursor <- None;
  drop_index t
