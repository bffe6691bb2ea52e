(* Page-based B+tree used for table indexes.

   Index entries are composite keys (column values, rowid), which makes
   every entry unique and lets non-unique indexes store duplicates.
   Interior nodes store (separator, child) pairs plus a leftmost child in
   the page's aux field; leaves are chained through the page header's
   [next] field for range scans.

   The root page id is fixed for the lifetime of the index (recorded in
   the catalog): when the root splits its content moves to a fresh child
   and the root becomes interior in place.  Index pages are ordinary
   database pages, so indexes are captured by Retro snapshots exactly as
   the paper requires ("a snapshot includes the entire state of the
   database (e.g., tables, indexes, system catalogs)").

   Deletion is lazy (no rebalancing); pages stay allocated until the
   index is dropped.  This mirrors SQLite's free-list behaviour closely
   enough for the experiments. *)

type entry = {
  key : Record.row; (* column values *)
  aux : int;        (* leaf: rowid; interior: child page id *)
}

type t = { root : int }

let root t = t.root

let encode_entry e = Record.encode_row (Array.append e.key [| Record.Int e.aux |])

(* The entry stored in [len] bytes at [off] of node page [p]. *)
let entry_at (p : Page.t) off len =
  let r = Record.decode_bytes p ~off ~len in
  let n = Array.length r in
  let aux = match r.(n - 1) with Record.Int i -> i | _ -> invalid_arg "Btree: bad entry" in
  { key = Array.sub r 0 (n - 1); aux }

(* The entry encoded in string [s] (a node slot's bytes). *)
let entry_of_string s = entry_at (Bytes.unsafe_of_string s) 0 (String.length s)

(* The node's slots as stored bytes, in slot (= key) order. *)
let slots (p : Page.t) =
  Array.init (Page.nslots p) (fun i -> Bytes.sub_string p (Page.slot_off p i) (Page.slot_len p i))

(* Rewrite a node page with the encoded entries [encs] in order; slot
   order is then key order, so lookups can binary-search over slots.
   Node pages have no dead slots, so each entry is appended at the end
   of the directory. *)
let store (p : Page.t) kind ~next ~aux encs =
  Page.init p kind;
  Page.set_next p next;
  Page.set_aux p aux;
  Array.iter
    (fun s ->
      if not (Page.insert_at p (Page.nslots p) s) then invalid_arg "Btree.store: node overflow")
    encs

(* Directory plus record bytes an encoded entry takes in a node. *)
let cost s = String.length s + Page.slot_bytes

(* Bytes a node's entries may take. *)
let capacity = Page.size - Page.header

(* A leaf entry adds the rid to the key and a separator also the child
   id (9 bytes each): a separator of a [max_key] key is half a node. *)
let max_key = (capacity / 2) - Page.slot_bytes - 18

let create txn =
  let pid = Txn.alloc txn Page.Btree_leaf in
  { root = pid }

let open_existing root = { root }

(* Interior entries store (separator, child): the separator is a promoted
   leaf composite whose rid is kept as an extra trailing key column, and
   [aux] holds the child page id.  Routing compares full composites so
   duplicate column values are handled exactly. *)

let sep_composite (e : entry) =
  let n = Array.length e.key in
  match e.key.(n - 1) with
  | Record.Int rid -> (Array.sub e.key 0 (n - 1), rid)
  | _ -> invalid_arg "Btree: bad separator"

let make_sep (key, rid) child = { key = Array.append key [| Record.Int rid |]; aux = child }

(* --- search on encoded entries -------------------------------------------

   Node pages are always kept dense and sorted (in-place edits shift the
   slot directory; splits rewrite whole nodes), so searches binary-
   search over slots.  A probe compares the search composite with the
   entry's bytes in the page and reads rids and child ids from the
   entry's tail, so nothing is copied or decoded on the way down.  Every
   entry ends in INTEGER values (9 encoded bytes each): a leaf entry is
   [key..., rid], an interior one [key..., separator rid, child]. *)

(* The INTEGER [k] values from the end of slot [i]'s entry. *)
let int_from_end (p : Page.t) i k = Record.int_at p (Page.slot_off p i + Page.slot_len p i - (9 * k))

(* Leaf rid or interior child id of slot [i]. *)
let slot_aux p i = int_from_end p i 1

(* Composite comparison of slot [i] with [(key, rid)]: leaves carry one
   trailing INTEGER after the key, interior separators two. *)
let compare_slot (p : Page.t) i ~trailing (key, rid) =
  let off = Page.slot_off p i in
  let nkey = Record.arity p ~off - trailing in
  let c = Record.compare_prefix p ~off ~len:(Page.slot_len p i) nkey key in
  if c <> 0 then c else Int.compare (int_from_end p i trailing) rid

(* Leaf: first slot whose composite is >= c. *)
let lower_bound_page (p : Page.t) c =
  let rec bs lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if compare_slot p mid ~trailing:1 c < 0 then bs (mid + 1) hi else bs lo mid
  in
  bs 0 (Page.nslots p)

(* Interior routing: last separator <= c (-1 = leftmost child). *)
let route_on_page (p : Page.t) c =
  let rec bs lo hi =
    if lo >= hi then lo - 1
    else
      let mid = (lo + hi) / 2 in
      if compare_slot p mid ~trailing:2 c <= 0 then bs (mid + 1) hi else bs lo mid
  in
  bs 0 (Page.nslots p)

let array_insert arr i x =
  let n = Array.length arr in
  Array.init (n + 1) (fun j -> if j < i then arr.(j) else if j = i then x else arr.(j - 1))

(* Split point by accumulated bytes (entries have variable size).  The
   entry [i] that crosses the midpoint goes left unless that overflows;
   then [0, i) holds under half the bytes, [i, n) under the new entry
   plus entry [i], so entries of at most half a node always fit. *)
let split_point encs =
  let total = Array.fold_left (fun acc s -> acc + cost s) 0 encs in
  let acc = ref 0 in
  let n = Array.length encs in
  let rec go i =
    if i >= n - 1 then n - 1
    else begin
      acc := !acc + cost encs.(i);
      if !acc * 2 < total then go (i + 1) else if !acc > capacity then i else i + 1
    end
  in
  max 1 (go 0)

(* Recursive insert; returns (separator, right page id) when [pid]
   split.  The fast path shifts the slot directory in place
   (Page.insert_at); a split takes the node's stored entry bytes as they
   are, plus the new entry encoded once, and decodes only the entry it
   promotes.  [lower_bound_w] works on the writable image so positions
   stay valid after earlier in-place edits. *)
let rec ins txn pid c =
  let p = Txn.read txn pid in
  match Page.kind p with
  | Page.Btree_leaf ->
    let key, rid = c in
    let enc = encode_entry { key; aux = rid } in
    let w = Txn.write txn pid in
    let pos = lower_bound_page w c in
    if Page.insert_at w pos enc then None
    else begin
      (* split: materialize including the new entry *)
      let encs = array_insert (slots w) pos enc in
      let mid = split_point encs in
      let left = Array.sub encs 0 mid in
      let right = Array.sub encs mid (Array.length encs - mid) in
      let right_pid = Txn.alloc txn Page.Btree_leaf in
      let rp = Txn.write txn right_pid in
      store rp Page.Btree_leaf ~next:(Page.next w) ~aux:(-1) right;
      store w Page.Btree_leaf ~next:right_pid ~aux:(-1) left;
      let s = entry_of_string right.(0) in
      Some ((s.key, s.aux), right_pid)
    end
  | Page.Btree_interior ->
    let i = route_on_page p c in
    let child = if i < 0 then Page.aux p else slot_aux p i in
    (match ins txn child c with
    | None -> None
    | Some (sep, right_pid) ->
      let enc = encode_entry (make_sep sep right_pid) in
      let w = Txn.write txn pid in
      if Page.insert_at w (i + 1) enc then None
      else begin
        let encs = array_insert (slots w) (i + 1) enc in
        let mid = split_point encs in
        let promoted = entry_of_string encs.(mid) in
        let left = Array.sub encs 0 mid in
        let right = Array.sub encs (mid + 1) (Array.length encs - mid - 1) in
        let right_pid = Txn.alloc txn Page.Btree_interior in
        let rp = Txn.write txn right_pid in
        store rp Page.Btree_interior ~next:(-1) ~aux:promoted.aux right;
        store w Page.Btree_interior ~next:(-1) ~aux:(Page.aux w) left;
        Some (sep_composite promoted, right_pid)
      end)
  | Page.Free | Page.Heap_page | Page.Meta ->
    invalid_arg "Btree.ins: not an index page"

let insert txn t key rid =
  match ins txn t.root (key, rid) with
  | None -> ()
  | Some (sep, right_pid) ->
    (* Root split: move the root's (already stored) left half to a fresh
       page and turn the fixed root page into an interior node. *)
    let left_pid = Txn.alloc txn Page.Btree_leaf in
    let root_img = Txn.read txn t.root in
    let lp = Txn.write txn left_pid in
    Bytes.blit root_img 0 lp 0 Page.size;
    let w = Txn.write txn t.root in
    store w Page.Btree_interior ~next:(-1) ~aux:left_pid
      [| encode_entry (make_sep sep right_pid) |]

let compare_composite (ka, ra) (kb, rb) =
  let c = Record.compare_row ka kb in
  if c <> 0 then c else Int.compare ra rb

(* The first position in [lo, hi) of [a] where [holds] fails ([hi] if
   none), [holds] being true on a prefix of it: exponential probes from
   [lo], then a binary search, so a prefix of length m costs about
   2 log2 m tests. *)
let prefix_end a lo hi holds =
  let good = ref lo and bad = ref hi and step = ref 1 in
  while lo + !step - 1 < !bad do
    let p = lo + !step - 1 in
    if holds a.(p) then begin
      good := p + 1;
      step := 2 * !step
    end
    else bad := p
  done;
  while !good < !bad do
    let m = (!good + !bad) / 2 in
    if holds a.(m) then good := m + 1 else bad := m
  done;
  !good

(* Natural merge sort: split [a] at every descent into ascending runs,
   then merge neighbouring runs pass by pass.  A merge that takes
   [gallop] entries in a row from one run finds the rest of that stretch
   by [prefix_end] and copies it whole.  So rows that arrive nearly in
   key order (the first write of a result table, a heap written in key
   order) sort in a few cheap passes, and sorted input in one scan. *)
let gallop = 7

let sort (a : (Record.row * int) array) =
  let n = Array.length a in
  let bounds = ref [ n ] in
  for i = n - 1 downto 1 do
    if compare_composite a.(i - 1) a.(i) > 0 then bounds := i :: !bounds
  done;
  (* [b] holds the runs' starts and then [n]: run j is [b.(j), b.(j+1)) *)
  let b = Array.of_list (0 :: !bounds) in
  if Array.length b > 2 then begin
    let merge src dst lo mid hi =
      let i = ref lo and j = ref mid and k = ref lo in
      let take_run from upto =
        Array.blit src !from dst !k (upto - !from);
        k := !k + (upto - !from);
        from := upto
      in
      let streak_a = ref 0 and streak_b = ref 0 in
      while !i < mid && !j < hi do
        if compare_composite src.(!i) src.(!j) <= 0 then begin
          dst.(!k) <- src.(!i);
          incr i;
          incr k;
          incr streak_a;
          streak_b := 0;
          if !streak_a >= gallop then begin
            let y = src.(!j) in
            take_run i (prefix_end src !i mid (fun x -> compare_composite x y <= 0));
            streak_a := 0
          end
        end
        else begin
          dst.(!k) <- src.(!j);
          incr j;
          incr k;
          incr streak_b;
          streak_a := 0;
          if !streak_b >= gallop then begin
            let x = src.(!i) in
            take_run j (prefix_end src !j hi (fun y -> compare_composite y x < 0));
            streak_b := 0
          end
        end
      done;
      take_run i mid;
      take_run j hi
    in
    let rec pass src dst b =
      let runs = Array.length b - 1 in
      if runs = 1 then (if src != a then Array.blit src 0 a 0 n)
      else begin
        let b' = Array.make (((runs + 1) / 2) + 1) n in
        for j = 0 to (runs / 2) - 1 do
          merge src dst b.(2 * j) b.((2 * j) + 1) b.((2 * j) + 2);
          b'.(j) <- b.(2 * j)
        done;
        if runs land 1 = 1 then begin
          let lo = b.(runs - 1) in
          Array.blit src lo dst lo (n - lo);
          b'.(runs / 2) <- lo
        end;
        pass dst src b'
      end
    in
    pass a (Array.copy a) b
  end

(* A node of a level under construction, seen from the level above: its
   first composite, that composite's encoded entry (a leaf entry, or the
   separator for [pid]) and its page id (-1 for a leaf entry). *)
type item = { first : Record.row * int; enc : string; pid : int }

(* Bulk load into an empty tree.  Leaves are packed left to right, each
   holding entries until the next one would not fit, and chained through
   [next].  Each interior level is packed the same way over the level
   below: a node's leftmost child goes in [aux] and every further child
   gets the separator [make_sep] of its first composite, the separator
   [ins] promotes when it splits that child off.  The level that fits in
   one node is written into the fixed root page, so the root never
   moves and no page is allocated only to be freed. *)
let build txn t (entries : (Record.row * int) array) =
  let root = Txn.read txn t.root in
  if Page.kind root <> Page.Btree_leaf || Page.nslots root <> 0 then
    invalid_arg "Btree.build: tree not empty";
  for i = 1 to Array.length entries - 1 do
    if compare_composite entries.(i - 1) entries.(i) >= 0 then
      invalid_arg "Btree.build: entries not strictly ascending"
  done;
  (* [(start, stop)] ranges of [items] packed greedily into nodes.  An
     interior node's first item is its leftmost child, which takes no
     room; every node stores at least one entry when one is left. *)
  let pack items ~interior =
    let n = Array.length items in
    let rec go start acc =
      if start >= n then Array.of_list (List.rev acc)
      else begin
        let first = if interior then start + 1 else start in
        let room = ref capacity and stop = ref start in
        while !stop < n && (!stop <= first || cost items.(!stop).enc <= !room) do
          if !stop >= first then room := !room - cost items.(!stop).enc;
          incr stop
        done;
        go !stop ((start, !stop) :: acc)
      end
    in
    go 0 []
  in
  (* Write one level of [items], in key order, then the levels above. *)
  let rec level kind items =
    let interior = kind = Page.Btree_interior in
    let groups = pack items ~interior in
    let node pid ~next (start, stop) =
      let first = if interior then start + 1 else start in
      store (Txn.write txn pid) kind ~next
        ~aux:(if interior then items.(start).pid else -1)
        (Array.init (stop - first) (fun i -> items.(first + i).enc))
    in
    if Array.length groups = 1 then node t.root ~next:(-1) groups.(0)
    else begin
      let pids = Array.map (fun _ -> Txn.alloc txn kind) groups in
      let last = Array.length pids - 1 in
      Array.iteri
        (fun g range -> node pids.(g) ~next:(if interior || g = last then -1 else pids.(g + 1)) range)
        groups;
      level Page.Btree_interior
        (Array.mapi
           (fun g pid ->
             let first = items.(fst groups.(g)).first in
             { first; enc = encode_entry (make_sep first pid); pid })
           pids)
    end
  in
  if Array.length entries > 0 then
    level Page.Btree_leaf
      (Array.map
         (fun ((key, rid) as first) -> { first; enc = encode_entry { key; aux = rid }; pid = -1 })
         entries)

let rec leaf_for read pid c =
  let p : Page.t = read pid in
  match Page.kind p with
  | Page.Btree_leaf -> pid
  | Page.Btree_interior ->
    let i = route_on_page p c in
    leaf_for read (if i < 0 then Page.aux p else slot_aux p i) c
  | Page.Free | Page.Heap_page | Page.Meta -> invalid_arg "Btree.leaf_for: not an index page"

(* Visit leaf slots in key order from the first composite >= [lo];
   [f page slot] returns false to stop. *)
let walk_from (read : Pager.read) t lo ~f =
  let rec walk pid ~first =
    let p = read pid in
    let n = Page.nslots p in
    let rec slots i = i >= n || (f p i && slots (i + 1)) in
    if slots (if first then lower_bound_page p lo else 0) then begin
      let next = Page.next p in
      if next >= 0 then walk next ~first:false
    end
  in
  walk (leaf_for read t.root lo) ~first:true

(* Rids of the entries with composite in [lo, hi] ([hi = None]: to the
   end); [f] returns false to stop.  Every entry reached is >= [lo],
   since the walk starts at [lo]'s lower bound. *)
let range read t ~lo ~hi ~f =
  walk_from read t lo ~f:(fun p i ->
      (match hi with Some hi -> compare_slot p i ~trailing:1 hi <= 0 | None -> true)
      && f (slot_aux p i))

let min_composite = ([| |], min_int)

let iter_all read t ~f =
  walk_from read t min_composite ~f:(fun p i ->
      let e = entry_at p (Page.slot_off p i) (Page.slot_len p i) in
      f e.key e.aux;
      true)

(* Entries whose key columns equal [key] exactly. *)
let lookup read t key ~f =
  range read t ~lo:(key, min_int) ~hi:(Some (key, max_int)) ~f:(fun rid -> f rid; true)

let delete txn t key rid =
  let c = (key, rid) in
  let pid = leaf_for (Txn.read_ctx txn) t.root c in
  let p = Txn.read txn pid in
  let i = lower_bound_page p c in
  if i < Page.nslots p && compare_slot p i ~trailing:1 c = 0 then begin
    let w = Txn.write txn pid in
    Page.remove_at w i;
    true
  end
  else false

let count read t =
  let n = ref 0 in
  iter_all read t ~f:(fun _ _ -> incr n);
  !n

(* Pages reachable from the root (index size experiments). *)
let page_count read t =
  let n = ref 0 in
  let rec go pid =
    incr n;
    let p = read pid in
    match Page.kind p with
    | Page.Btree_leaf -> ()
    | Page.Btree_interior ->
      go (Page.aux p);
      for i = 0 to Page.nslots p - 1 do go (slot_aux p i) done
    | Page.Free | Page.Heap_page | Page.Meta -> ()
  in
  go t.root;
  !n

let drop txn t =
  let read = Txn.read_ctx txn in
  let rec go pid =
    let p = read pid in
    (match Page.kind p with
    | Page.Btree_interior ->
      go (Page.aux p);
      for i = 0 to Page.nslots p - 1 do go (slot_aux p i) done
    | Page.Btree_leaf | Page.Free | Page.Heap_page | Page.Meta -> ());
    Txn.free txn pid
  in
  go t.root
