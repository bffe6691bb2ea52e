(* Static vocabularies from the TPC-H specification (dbgen's grammar
   sources), trimmed to what the schema columns need. *)

let regions = [| "AFRICA"; "AMERICA"; "ASIA"; "EUROPE"; "MIDDLE EAST" |]

(* nation name, region key *)
let nations =
  [| ("ALGERIA", 0); ("ARGENTINA", 1); ("BRAZIL", 1); ("CANADA", 1); ("EGYPT", 4);
     ("ETHIOPIA", 0); ("FRANCE", 3); ("GERMANY", 3); ("INDIA", 2); ("INDONESIA", 2);
     ("IRAN", 4); ("IRAQ", 4); ("JAPAN", 2); ("JORDAN", 4); ("KENYA", 0);
     ("MOROCCO", 0); ("MOZAMBIQUE", 0); ("PERU", 1); ("CHINA", 2); ("ROMANIA", 3);
     ("SAUDI ARABIA", 4); ("VIETNAM", 2); ("RUSSIA", 3); ("UNITED KINGDOM", 3);
     ("UNITED STATES", 1) |]

let type_syllable_1 = [| "STANDARD"; "SMALL"; "MEDIUM"; "LARGE"; "ECONOMY"; "PROMO" |]
let type_syllable_2 = [| "ANODIZED"; "BURNISHED"; "PLATED"; "POLISHED"; "BRUSHED" |]
let type_syllable_3 = [| "TIN"; "NICKEL"; "BRASS"; "STEEL"; "COPPER" |]

let containers_1 = [| "SM"; "LG"; "MED"; "JUMBO"; "WRAP" |]
let containers_2 = [| "CASE"; "BOX"; "BAG"; "JAR"; "PKG"; "PACK"; "CAN"; "DRUM" |]

let segments = [| "AUTOMOBILE"; "BUILDING"; "FURNITURE"; "MACHINERY"; "HOUSEHOLD" |]

let priorities = [| "1-URGENT"; "2-HIGH"; "3-MEDIUM"; "4-NOT SPECIFIED"; "5-LOW" |]

let instructs = [| "DELIVER IN PERSON"; "COLLECT COD"; "NONE"; "TAKE BACK RETURN" |]

let modes = [| "REG AIR"; "AIR"; "RAIL"; "SHIP"; "TRUCK"; "MAIL"; "FOB" |]

let part_name_words =
  [| "almond"; "antique"; "aquamarine"; "azure"; "beige"; "bisque"; "black"; "blanched";
     "blue"; "blush"; "brown"; "burlywood"; "burnished"; "chartreuse"; "chiffon";
     "chocolate"; "coral"; "cornflower"; "cornsilk"; "cream"; "cyan"; "dark"; "deep";
     "dim"; "dodger"; "drab"; "firebrick"; "floral"; "forest"; "frosted"; "gainsboro";
     "ghost"; "goldenrod"; "green"; "grey"; "honeydew"; "hot"; "hotpink"; "indian";
     "ivory"; "khaki"; "lace"; "lavender"; "lawn"; "lemon"; "light"; "lime"; "linen" |]

let comment_words =
  [| "furiously"; "quickly"; "slyly"; "carefully"; "blithely"; "deposits"; "requests";
     "accounts"; "packages"; "instructions"; "foxes"; "pinto"; "beans"; "theodolites";
     "dependencies"; "excuses"; "platelets"; "asymptotes"; "courts"; "ideas"; "dolphins";
     "sleep"; "nag"; "wake"; "cajole"; "haggle"; "boost"; "final"; "express"; "regular";
     "special"; "pending"; "bold"; "even"; "silent"; "unusual"; "ironic" |]

(* --- dates ------------------------------------------------------------- *)

(* TPC-H order dates span [STARTDATE, ENDDATE]; we use days since
   1992-01-01 and render ISO text so lexicographic comparison equals date
   comparison. *)
let start_year = 1992

let days_in_month y m =
  match m with
  | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
  | 4 | 6 | 9 | 11 -> 30
  | 2 -> if (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0 then 29 else 28
  | _ -> invalid_arg "days_in_month"

(* The formula: day [d] since 1992-01-01 as ISO text. *)
let format_day_number d =
  let rec year y d =
    let len = if (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0 then 366 else 365 in
    if d < len then (y, d) else year (y + 1) (d - len)
  in
  let y, d = year start_year d in
  let rec month m d =
    let len = days_in_month y m in
    if d < len then (m, d + 1) else month (m + 1) (d - len)
  in
  let m, dom = month 1 d in
  Printf.sprintf "%04d-%02d-%02d" y m dom

(* 1992-01-01 .. 1998-08-02 is 2406 days. *)
let max_order_day = 2405

(* Every date the generator writes is a day in [0, max_order_day], so
   the row builders read them from a table rather than format each. *)
let dates = Array.init (max_order_day + 1) format_day_number

let date_of_day_number d =
  if d < 0 || d > max_order_day then
    invalid_arg
      (Printf.sprintf "Data.date_of_day_number: day %d is outside 0..%d" d max_order_day);
  Array.unsafe_get dates d
