(* Aggregate-function tests: the function names RQL accepts, rejection
   of non-monoid functions, and the one fold every aggregate uses — the
   executor's accumulator (Exec.acc_add), resumed from a stored result
   the way AggregateDataInTable resumes from T.  Its rules: NULL is
   skipped; every other value counts for COUNT and AVG; a non-numeric
   TEXT adds 0, a REAL or numeric TEXT makes SUM REAL; COUNT of nothing
   is 0.  So RQL's TEXT folds as SQL's does, and AggregateDataInVariable's
   COUNT is 0 before Qq returns a row (DESIGN.md §5 lists every intended
   change).  The laws the paper requires (associativity, commutativity,
   identity) are checked on that fold, and so is order independence for
   exact inputs. *)

module M = Rql.Monoid
module R = Storage.Record
module X = Sqldb.Exec

let value = Alcotest.testable R.pp_value R.equal_value

(* The value exactly: INTEGER 1 and REAL 1.0 differ. *)
let exact = Alcotest.testable R.pp_value (fun a b -> R.encode_row [| a |] = R.encode_row [| b |])

let spec fn = { Sqldb.Ast.agg_fn = fn; agg_arg = None; agg_distinct = false }

(* The result of folding [vs], in order. *)
let fold fn vs =
  let acc = X.new_acc (spec fn) in
  List.iter (X.acc_add acc) vs;
  X.acc_final acc

(* A stored MIN/MAX/SUM/COUNT result with one more value folded in. *)
let combine fn stored v =
  let acc = X.acc_resume (spec fn) stored in
  X.acc_add acc v;
  X.acc_final acc

let basic =
  [ Alcotest.test_case "of_string accepts the paper's functions" `Quick (fun () ->
        Alcotest.(check bool) "min" true (M.of_string "MIN" = M.Min);
        Alcotest.(check bool) "max" true (M.of_string "max" = M.Max);
        Alcotest.(check bool) "sum" true (M.of_string " Sum " = M.Sum);
        Alcotest.(check bool) "count" true (M.of_string "count" = M.Count);
        Alcotest.(check bool) "avg" true (M.of_string "avg" = M.Avg);
        Alcotest.(check bool) "average" true (M.of_string "Average" = M.Avg);
        (* SQL's TOTAL is not one of AggFunc's functions *)
        Alcotest.(check bool) "total" true
          (match M.of_string "total" with _ -> false | exception Rql.Error _ -> true));
    Alcotest.test_case "distinct aggregations rejected with guidance" `Quick (fun () ->
        List.iter
          (fun s ->
            Alcotest.(check bool) s true
              (try
                 ignore (M.of_string s);
                 false
               with Rql.Error msg ->
                 (* the message points at the CollateData workaround *)
                 String.length msg > 0))
          [ "count distinct"; "sum distinct"; "count_distinct"; "sum_distinct"; "median" ]);
    Alcotest.test_case "count counts values, not their sum" `Quick (fun () ->
        let first = fold M.Count [ R.Int 999 ] in
        Alcotest.check value "first occurrence is 1" (R.Int 1) first;
        let second = combine M.Count first (R.Int 999) in
        Alcotest.check value "second is 2" (R.Int 2) second;
        Alcotest.check value "null does not count" (R.Int 2) (combine M.Count second R.Null));
    Alcotest.test_case "sum mixes int and real" `Quick (fun () ->
        Alcotest.check exact "ints stay int" (R.Int 5) (combine M.Sum (R.Int 2) (R.Int 3));
        Alcotest.check exact "mixed promotes" (R.Real 5.5) (combine M.Sum (R.Int 2) (R.Real 3.5)));
    Alcotest.test_case "min/max on text" `Quick (fun () ->
        Alcotest.check value "min" (R.Text "2008-11-09")
          (combine M.Min (R.Text "2008-11-10") (R.Text "2008-11-09"));
        Alcotest.check value "max" (R.Text "2008-11-10")
          (combine M.Max (R.Text "2008-11-10") (R.Text "2008-11-09")));
    Alcotest.test_case "avg state averages and merges" `Quick (fun () ->
        Alcotest.check value "empty avg is null" R.Null (fold M.Avg []);
        let acc = X.new_acc (spec M.Avg) in
        List.iter (X.acc_add acc) [ R.Int 1; R.Int 2; R.Null ];
        Alcotest.check value "avg skips null" (R.Real 1.5) (X.acc_final acc);
        (* a stored (sum, count) pair resumes, and more values merge in *)
        let sum, count = X.acc_avg_state acc in
        let resumed = X.acc_resume_avg (spec M.Avg) ~sum ~count in
        X.acc_add resumed (R.Int 3);
        Alcotest.check value "merged avg" (R.Real 2.) (X.acc_final resumed));
    Alcotest.test_case "text folds as SQL folds it" `Quick (fun () ->
        let vs = [ R.Int 7; R.Int 7; R.Text "abc"; R.Int 4 ] in
        Alcotest.check exact "non-numeric text adds 0" (R.Int 18) (fold M.Sum vs);
        Alcotest.check exact "and counts" (R.Int 4) (fold M.Count vs);
        Alcotest.check exact "avg counts it too" (R.Real 3.)
          (fold M.Avg [ R.Text "abc"; R.Int 4; R.Int 5 ]);
        Alcotest.check exact "numeric text makes the sum real" (R.Real 9.5)
          (fold M.Sum [ R.Int 7; R.Text " 2.5" ]);
        Alcotest.check exact "text sorts after numbers" (R.Text "abc") (fold M.Max vs);
        Alcotest.check exact "count of nothing is 0" (R.Int 0) (fold M.Count []);
        Alcotest.check exact "sum of nothing is null" R.Null (fold M.Sum [ R.Null ])) ]

(* --- monoid laws ------------------------------------------------------ *)

let gen_value =
  QCheck.Gen.(
    frequency
      [ (1, return R.Null);
        (5, map (fun i -> R.Int i) (int_range (-1000) 1000));
        (3, map (fun f -> R.Real (Float.round (f *. 100.) /. 100.)) (float_bound_inclusive 100.)) ])

let arb_value = QCheck.make ~print:R.value_to_string gen_value

let fns = [ M.Min; M.Max; M.Sum ]

(* Identity element of [combine] on non-null values. *)
let identity = function M.Sum | M.Total -> R.Int 0 | M.Min | M.Max | M.Count | M.Avg -> R.Null

(* Equality for combined values: numeric tolerance for float sums. *)
let veq a b =
  match (a, b) with
  | R.Real x, R.Real y -> Float.abs (x -. y) < 1e-9
  | R.Real x, R.Int y | R.Int y, R.Real x -> Float.abs (x -. float_of_int y) < 1e-9
  | _ -> R.equal_value a b

let prop_assoc =
  QCheck.Test.make ~name:"combine is associative" ~count:300
    (QCheck.triple arb_value arb_value arb_value)
    (fun (a, b, c) ->
      List.for_all
        (fun m -> veq (combine m (combine m a b) c) (combine m a (combine m b c)))
        fns)

let prop_comm =
  QCheck.Test.make ~name:"combine is commutative" ~count:300 (QCheck.pair arb_value arb_value)
    (fun (a, b) -> List.for_all (fun m -> veq (combine m a b) (combine m b a)) fns)

let prop_identity =
  QCheck.Test.make ~name:"identity element is neutral" ~count:300 arb_value (fun a ->
      (* NULL itself behaves as an identity (SQL aggregates skip NULL), so
         neutrality is only meaningful on non-null values *)
      a = R.Null
      || List.for_all
           (fun m -> veq (combine m (identity m) a) a && veq (combine m a (identity m)) a)
           fns)

(* count: folding n non-null values yields n *)
let prop_count =
  QCheck.Test.make ~name:"count equals number of non-null values" ~count:200
    (QCheck.list arb_value)
    (fun vs ->
      let expected = List.length (List.filter (fun v -> v <> R.Null) vs) in
      fold M.Count vs = R.Int expected)

(* avg equals the arithmetic mean of the non-null inputs *)
let prop_avg =
  QCheck.Test.make ~name:"avg equals arithmetic mean" ~count:200 (QCheck.list arb_value)
    (fun vs ->
      let nums =
        List.filter_map
          (function R.Int i -> Some (float_of_int i) | R.Real f -> Some f | _ -> None)
          vs
      in
      match nums with
      | [] -> fold M.Avg vs = R.Null
      | _ ->
        let mean = List.fold_left ( +. ) 0. nums /. float_of_int (List.length nums) in
        veq (fold M.Avg vs) (R.Real mean))

(* Exact inputs: every partial sum is exact in floating point (quarters
   of small integers), no REAL equals an INTEGER (MIN/MAX keep the first
   of two equal values), and TEXT is numeric or not. *)
let gen_exact =
  QCheck.Gen.(
    frequency
      [ (1, return R.Null);
        (4, map (fun i -> R.Int i) (int_range (-1000) 1000));
        (3, map (fun k -> R.Real ((float_of_int (2 * k) +. 1.) /. 4.)) (int_range (-2000) 2000));
        (2, map (fun s -> R.Text s) (oneofl [ "abc"; "xyz"; "7"; "2.5"; " -0.75" ])) ])

let shuffle seed l =
  let st = Random.State.make [| seed |] in
  List.map snd (List.sort compare (List.map (fun v -> (Random.State.bits st, v)) l))

(* The paper's monoid requirement, on the fold itself: any order of the
   same values gives the same result, byte for byte. *)
let prop_order =
  QCheck.Test.make ~name:"fold is order-independent on exact inputs" ~count:300
    QCheck.(pair (make ~print:(Print.list R.value_to_string) Gen.(list gen_exact)) int)
    (fun (vs, seed) ->
      let enc fn l = R.encode_row [| fold fn l |] in
      List.for_all
        (fun fn -> enc fn vs = enc fn (shuffle seed vs) && enc fn vs = enc fn (List.rev vs))
        [ M.Min; M.Max; M.Sum; M.Count; M.Avg ])

let () =
  Alcotest.run "monoid"
    [ ("basic", basic);
      ( "laws",
        List.map QCheck_alcotest.to_alcotest
          [ prop_assoc; prop_comm; prop_identity; prop_count; prop_avg; prop_order ] ) ]
