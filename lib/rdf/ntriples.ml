let triple_to_line = Triple.to_ntriples

type located_error = { l_line : int; l_col : int; l_reason : string }

let string_of_error e =
  Printf.sprintf "line %d: col %d: %s" e.l_line e.l_col e.l_reason

let pp_error ppf e =
  Fmt.pf ppf "line %d: col %d: %s" e.l_line e.l_col e.l_reason

(* A small cursor-based scanner over one trimmed line, the range
   [[base, stop)] of [text] (a whole document, scanned in place). Scan
   errors carry the 1-based column within the trimmed line; the line
   number is attached by the caller. *)
type cursor = { text : string; mutable pos : int; base : int; stop : int }

let peek c = if c.pos < c.stop then Some c.text.[c.pos] else None

let skip_ws c =
  while c.pos < c.stop && (c.text.[c.pos] = ' ' || c.text.[c.pos] = '\t') do
    c.pos <- c.pos + 1
  done

let error c msg = Error (c.pos - c.base + 1, msg)

(* The text between '<' and '>'; the current char is '<'. *)
let scan_iri_text c =
  c.pos <- c.pos + 1;
  let start = c.pos in
  let rec close i =
    if i >= c.stop then error c "unterminated IRI"
    else if c.text.[i] = '>' then begin
      c.pos <- i + 1;
      Ok (String.sub c.text start (i - start))
    end
    else close (i + 1)
  in
  close start

let scan_iri c = Result.map Term.iri (scan_iri_text c)

let scan_bnode c =
  (* Current chars are '_:'. *)
  c.pos <- c.pos + 2;
  let start = c.pos in
  let is_label_char ch =
    (ch >= 'a' && ch <= 'z')
    || (ch >= 'A' && ch <= 'Z')
    || (ch >= '0' && ch <= '9')
    || ch = '_' || ch = '-'
  in
  while c.pos < c.stop && is_label_char c.text.[c.pos] do
    c.pos <- c.pos + 1
  done;
  if c.pos = start then error c "empty blank node label"
  else Ok (Term.bnode (String.sub c.text start (c.pos - start)))

(* Most literals hold no escape, and need no copy. *)
let unescape s =
  if not (String.contains s '\\') then s
  else
    let buf = Buffer.create (String.length s) in
    let rec go i =
      if i >= String.length s then Buffer.contents buf
      else if s.[i] = '\\' && i + 1 < String.length s then begin
        (match s.[i + 1] with
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | other ->
          Buffer.add_char buf '\\';
          Buffer.add_char buf other);
        go (i + 2)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
    in
    go 0

let scan_literal c =
  (* Current char is '"'. Scan to the closing unescaped quote. *)
  c.pos <- c.pos + 1;
  let start = c.pos in
  let rec find i =
    if i >= c.stop then None
    else if c.text.[i] = '\\' then find (i + 2)
    else if c.text.[i] = '"' then Some i
    else find (i + 1)
  in
  match find start with
  | None -> error c "unterminated literal"
  | Some close -> (
    let lex = unescape (String.sub c.text start (close - start)) in
    c.pos <- close + 1;
    match peek c with
    | Some '^' when c.pos + 1 < c.stop && c.text.[c.pos + 1] = '^' -> (
      c.pos <- c.pos + 2;
      match peek c with
      | Some '<' -> Result.map (Term.typed lex) (scan_iri_text c)
      | _ -> error c "expected datatype IRI after ^^")
    | Some '@' ->
      (* Language tag: keep the lexical form, drop the tag. *)
      let rec skip i =
        if i < c.stop && c.text.[i] <> ' ' && c.text.[i] <> '\t' then
          skip (i + 1)
        else i
      in
      c.pos <- skip (c.pos + 1);
      Ok (Term.str lex)
    | _ -> Ok (Term.str lex))

let scan_term c =
  skip_ws c;
  match peek c with
  | Some '<' -> scan_iri c
  | Some '"' -> scan_literal c
  | Some '_' -> scan_bnode c
  | Some ch -> error c (Printf.sprintf "unexpected character %C" ch)
  | None -> error c "unexpected end of line"

let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* The bounds of [text]'s range [[i, j)] without the spaces around it,
   as [String.trim] would cut them. *)
let trim text i j =
  let i = ref i and j = ref j in
  while !i < !j && is_space text.[!i] do
    incr i
  done;
  while !j > !i && is_space text.[!j - 1] do
    decr j
  done;
  (!i, !j)

(* Parse the line [[i, j)] of [text]. *)
let parse_range ~line:l_line text i j =
  let base, stop = trim text i j in
  if base = stop || text.[base] = '#' then Ok None
  else
    let located = function
      | Ok _ as ok -> ok
      | Error (l_col, l_reason) -> Error { l_line; l_col; l_reason }
    in
    let c = { text; pos = base; base; stop } in
    match located (scan_term c) with
    | Error e -> Error e
    | Ok s -> (
      match located (scan_term c) with
      | Error e -> Error e
      | Ok p -> (
        match located (scan_term c) with
        | Error e -> Error e
        | Ok o ->
          skip_ws c;
          (match peek c with
          | Some '.' ->
            c.pos <- c.pos + 1;
            skip_ws c;
            (match peek c with
            | None -> Ok (Some (Triple.make s p o))
            | Some _ -> located (error c "trailing content after '.'"))
          | _ -> located (error c "expected terminating '.'"))))

let parse_line_located ~line text =
  parse_range ~line text 0 (String.length text)

(* Shim: the historical one-line API reported ["col %d: %s"]. *)
let parse_line line =
  match parse_line_located ~line:1 line with
  | Ok t -> Ok t
  | Error e -> Error (Printf.sprintf "col %d: %s" e.l_col e.l_reason)

type mode = Strict | Skip of int | Quarantine

let parse_mode s =
  match s with
  | "strict" -> Ok Strict
  | "quarantine" -> Ok Quarantine
  | "skip" -> Ok (Skip 100)
  | _ -> (
    let bad () =
      Error
        (Printf.sprintf
           "--dirty-input: expected strict, skip[=N], or quarantine, got %S" s)
    in
    match String.index_opt s '=' with
    | Some i when String.sub s 0 i = "skip" -> (
      let v = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt v with
      | Some n when n >= 0 -> Ok (Skip n)
      | _ -> bad ())
    | _ -> bad ())

type quarantined = { q_text : string; q_error : located_error }

let pp_quarantined ppf q =
  Fmt.pf ppf "line %d, col %d: %s: %S" q.q_error.l_line q.q_error.l_col
    q.q_error.l_reason q.q_text

type load = { triples : Triple.t list; quarantined : quarantined list }

let budget_of_mode = function
  | Strict -> 0
  | Skip n -> n
  | Quarantine -> max_int

(* Lines are scanned in place: the document is never split into a
   string per line. *)
let parse_string_mode mode s =
  let budget = budget_of_mode mode in
  let len = String.length s in
  let rec go n i acc quar nquar =
    if i > len then Ok { triples = List.rev acc; quarantined = List.rev quar }
    else
      let j = Option.value ~default:len (String.index_from_opt s i '\n') in
      match parse_range ~line:n s i j with
      | Ok None -> go (n + 1) (j + 1) acc quar nquar
      | Ok (Some t) -> go (n + 1) (j + 1) (t :: acc) quar nquar
      | Error e ->
        if nquar >= budget then Error e
        else
          let base, stop = trim s i j in
          let q = { q_text = String.sub s base (stop - base); q_error = e } in
          go (n + 1) (j + 1) acc (q :: quar) (nquar + 1)
  in
  go 1 0 [] [] 0

(* Shim: the historical whole-document API reported
   ["line %d: col %d: %s"] as one string. *)
let parse_string s =
  match parse_string_mode Strict s with
  | Ok { triples; _ } -> Ok triples
  | Error e -> Error (string_of_error e)

let write_file path triples =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun t ->
          output_string oc (triple_to_line t);
          output_char oc '\n')
        triples)

let read_file_mode mode path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      let content = really_input_string ic len in
      parse_string_mode mode content)

let read_file path =
  match read_file_mode Strict path with
  | Ok { triples; _ } -> Ok triples
  | Error e -> Error (string_of_error e)
