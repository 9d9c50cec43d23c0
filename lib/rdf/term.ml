type datatype = Dstring | Dint | Ddecimal | Dboolean | Ddate

type literal = { lex : string; datatype : datatype }

type t =
  | Iri of string
  | Literal of literal
  | Bnode of string

let rank = function Iri _ -> 0 | Literal _ -> 1 | Bnode _ -> 2

(* Terms are hash-consed: every constructor below returns the one block
   the table below holds for its value, so two equal terms are the same
   block and [equal] is [==]. [compare] and [hash] stay structural,
   because every order, hashtable layout and output byte was built on
   them. *)
let compare a b =
  if a == b then 0
  else
    match a, b with
    | Iri x, Iri y -> String.compare x y
    | Bnode x, Bnode y -> String.compare x y
    | Literal x, Literal y ->
      let c = compare x.datatype y.datatype in
      if c <> 0 then c else String.compare x.lex y.lex
    | _ -> Int.compare (rank a) (rank b)

let equal a b = a == b

let hash = function
  | Iri s -> Hashtbl.hash (0, s)
  | Literal { lex; datatype } -> Hashtbl.hash (1, lex, datatype)
  | Bnode s -> Hashtbl.hash (2, s)

(* The hash-cons table: open addressing with linear probing over a weak
   array of terms and an array of their keys. Weak, so that a term
   nothing else holds (a dataset the server has dropped, an aggregate
   literal) is collected. A key of 0 marks a slot never used, which
   ends a probe. A slot whose term was collected keeps its key, so it
   does not end a probe; the next term with that key takes it over (a
   query's result literals die and come back), and a rebuild drops the
   rest. Process-global and not domain-safe. *)
let terms : t Weak.t ref = ref (Weak.create 64)
let keys = ref (Array.make 64 0)
let used = ref 0 (* slots with a nonzero key *)

(* [Hashtbl.hash] of the text, shifted over a nonzero tag for the kind. *)
let key = function
  | Iri s -> (Hashtbl.hash s lsl 3) lor 1
  | Bnode s -> (Hashtbl.hash s lsl 3) lor 2
  | Literal { lex; datatype } ->
    let tag =
      match datatype with
      | Dstring -> 3 | Dint -> 4 | Ddecimal -> 5 | Dboolean -> 6 | Ddate -> 7
    in
    (Hashtbl.hash lex lsl 3) lor tag

let same_value a b =
  match a, b with
  | Iri x, Iri y | Bnode x, Bnode y -> String.equal x y
  | Literal x, Literal y -> x.datatype = y.datatype && String.equal x.lex y.lex
  | (Iri _ | Literal _ | Bnode _), _ -> false

(* The held term equal to the fresh block [t], or [t] itself, now held. *)
let rec intern t =
  let k = key t and ts = !terms and ks = !keys in
  let mask = Array.length ks - 1 in
  let rec probe j dead =
    let kj = Array.unsafe_get ks j in
    if kj = 0 then place t k (if dead >= 0 then dead else j)
    else if kj <> k then probe ((j + 1) land mask) dead
    else
      match Weak.get ts j with
      | Some u when same_value u t -> u
      | Some _ -> probe ((j + 1) land mask) dead
      | None -> probe ((j + 1) land mask) (if dead >= 0 then dead else j)
  in
  probe ((k lsr 3) land mask) (-1)

and place t k j =
  if !keys.(j) = 0 && 2 * (!used + 1) > Array.length !keys then begin
    rebuild ();
    intern t
  end
  else begin
    if !keys.(j) = 0 then incr used;
    Weak.set !terms j (Some t);
    !keys.(j) <- k;
    t
  end

(* Rehash the live terms into a table a quarter full at most, which
   also drops the keys of collected ones. *)
and rebuild () =
  let ts = !terms and ks = !keys in
  let live = ref 0 in
  for j = 0 to Weak.length ts - 1 do
    if Weak.check ts j then incr live
  done;
  let n = ref 64 in
  while !n < 4 * !live do
    n := 2 * !n
  done;
  let ts' = Weak.create !n and ks' = Array.make !n 0 in
  let mask = !n - 1 in
  for j = 0 to Weak.length ts - 1 do
    match Weak.get ts j with
    | None -> ()
    | Some u ->
      let rec free i = if ks'.(i) = 0 then i else free ((i + 1) land mask) in
      let i = free ((ks.(j) lsr 3) land mask) in
      Weak.set ts' i (Some u);
      ks'.(i) <- ks.(j)
  done;
  terms := ts';
  keys := ks';
  used := !live

let iri s = intern (Iri s)
let literal lex datatype = intern (Literal { lex; datatype })
let str s = literal s Dstring
let int n = literal (string_of_int n) Dint

let decimal f =
  (* Canonical form avoids "3." vs "3.0" mismatches between generators;
     12 significant digits keep aggregation round-off (different engines
     fold sums in different orders) below the 9-digit rounding used for
     cross-engine result comparison. *)
  let lex =
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.1f" f
    else Printf.sprintf "%.12g" f
  in
  literal lex Ddecimal

let boolean b = literal (string_of_bool b) Dboolean
let date s = literal s Ddate
let bnode s = intern (Bnode s)

let as_number = function
  | Literal { lex; datatype = Dint | Ddecimal } -> float_of_string_opt lex
  | Literal { lex; datatype = Dstring } -> float_of_string_opt lex
  | Literal { datatype = Dboolean | Ddate; _ } | Iri _ | Bnode _ -> None

let as_int t = Option.map int_of_float (as_number t)

let lexical = function
  | Iri s -> s
  | Literal { lex; _ } -> lex
  | Bnode s -> s

let is_iri = function Iri _ -> true | Literal _ | Bnode _ -> false

let pp ppf = function
  | Iri s -> Fmt.pf ppf "<%s>" s
  | Literal { lex; datatype = Dstring } -> Fmt.pf ppf "%S" lex
  | Literal { lex; _ } -> Fmt.string ppf lex
  | Bnode s -> Fmt.pf ppf "_:%s" s

let to_string t = Fmt.str "%a" pp t

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let xsd = "http://www.w3.org/2001/XMLSchema#"

let datatype_of_iri iri =
  let n = String.length xsd in
  if not (String.starts_with ~prefix:xsd iri) then None
  else
    match String.sub iri n (String.length iri - n) with
    | "integer" | "int" | "long" -> Some Dint
    | "decimal" | "double" | "float" -> Some Ddecimal
    | "boolean" -> Some Dboolean
    | "date" | "dateTime" -> Some Ddate
    | "string" -> Some Dstring
    | _ -> None

let typed lex datatype_iri =
  literal lex (Option.value ~default:Dstring (datatype_of_iri datatype_iri))

let to_ntriples = function
  | Iri s -> "<" ^ s ^ ">"
  | Bnode s -> "_:" ^ s
  | Literal { lex; datatype } -> (
    let quoted = "\"" ^ escape_string lex ^ "\"" in
    match datatype with
    | Dstring -> quoted
    | Dint -> quoted ^ "^^<" ^ xsd ^ "integer>"
    | Ddecimal -> quoted ^ "^^<" ^ xsd ^ "decimal>"
    | Dboolean -> quoted ^ "^^<" ^ xsd ^ "boolean>"
    | Ddate -> quoted ^ "^^<" ^ xsd ^ "date>")
