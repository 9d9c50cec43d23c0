type datatype = Dstring | Dint | Ddecimal | Dboolean | Ddate

type literal = { lex : string; datatype : datatype }

type t =
  | Iri of string
  | Literal of literal
  | Bnode of string

let rank = function Iri _ -> 0 | Literal _ -> 1 | Bnode _ -> 2

let compare a b =
  match a, b with
  | Iri x, Iri y -> String.compare x y
  | Bnode x, Bnode y -> String.compare x y
  | Literal x, Literal y ->
    let c = compare x.datatype y.datatype in
    if c <> 0 then c else String.compare x.lex y.lex
  | _ -> Int.compare (rank a) (rank b)

(* The same relation as [compare a b = 0], without ordering anything:
   the predicate test of every triplegroup filter runs through here. *)
let equal a b =
  a == b
  ||
  match a, b with
  | Iri x, Iri y | Bnode x, Bnode y -> String.equal x y
  | Literal x, Literal y ->
    x.datatype = y.datatype && String.equal x.lex y.lex
  | (Iri _ | Literal _ | Bnode _), _ -> false

let hash = function
  | Iri s -> Hashtbl.hash (0, s)
  | Literal { lex; datatype } -> Hashtbl.hash (1, lex, datatype)
  | Bnode s -> Hashtbl.hash (2, s)

let iri s = Iri s
let str s = Literal { lex = s; datatype = Dstring }
let int n = Literal { lex = string_of_int n; datatype = Dint }

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
  Literal { lex; datatype = Ddecimal }

let boolean b = Literal { lex = string_of_bool b; datatype = Dboolean }
let date s = Literal { lex = s; datatype = Ddate }
let bnode s = Bnode s

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
  if iri = xsd ^ "integer" || iri = xsd ^ "int" || iri = xsd ^ "long" then
    Some Dint
  else if iri = xsd ^ "decimal" || iri = xsd ^ "double" || iri = xsd ^ "float"
  then Some Ddecimal
  else if iri = xsd ^ "boolean" then Some Dboolean
  else if iri = xsd ^ "date" || iri = xsd ^ "dateTime" then Some Ddate
  else if iri = xsd ^ "string" then Some Dstring
  else None

let typed lex datatype_iri =
  Literal
    { lex;
      datatype = Option.value ~default:Dstring (datatype_of_iri datatype_iri) }

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
