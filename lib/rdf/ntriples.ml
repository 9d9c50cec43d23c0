let triple_to_line = Triple.to_ntriples

type located_error = { l_line : int; l_col : int; l_reason : string }

let string_of_error e =
  Printf.sprintf "line %d: col %d: %s" e.l_line e.l_col e.l_reason

let pp_error ppf e =
  Fmt.pf ppf "line %d: col %d: %s" e.l_line e.l_col e.l_reason

(* A small cursor-based scanner over one line. Scan errors carry the
   1-based column; the line number is attached by the caller. *)
type cursor = { line : string; mutable pos : int }

let peek c = if c.pos < String.length c.line then Some c.line.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.line
    && (c.line.[c.pos] = ' ' || c.line.[c.pos] = '\t')
  do
    c.pos <- c.pos + 1
  done

let error c msg = Error (c.pos + 1, msg)

let scan_iri c =
  (* Caller has consumed nothing; current char is '<'. *)
  c.pos <- c.pos + 1;
  let start = c.pos in
  match String.index_from_opt c.line start '>' with
  | None -> error c "unterminated IRI"
  | Some close ->
    let iri = String.sub c.line start (close - start) in
    c.pos <- close + 1;
    Ok (Term.iri iri)

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
  while c.pos < String.length c.line && is_label_char c.line.[c.pos] do
    c.pos <- c.pos + 1
  done;
  if c.pos = start then error c "empty blank node label"
  else Ok (Term.bnode (String.sub c.line start (c.pos - start)))

let unescape s =
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

let datatype_of_iri = Term.datatype_of_iri

let scan_literal c =
  (* Current char is '"'. Scan to the closing unescaped quote. *)
  c.pos <- c.pos + 1;
  let start = c.pos in
  let rec find i =
    if i >= String.length c.line then None
    else if c.line.[i] = '\\' then find (i + 2)
    else if c.line.[i] = '"' then Some i
    else find (i + 1)
  in
  match find start with
  | None -> error c "unterminated literal"
  | Some close -> (
    let lex = unescape (String.sub c.line start (close - start)) in
    c.pos <- close + 1;
    match peek c with
    | Some '^' when c.pos + 1 < String.length c.line && c.line.[c.pos + 1] = '^'
      -> (
      c.pos <- c.pos + 2;
      match peek c with
      | Some '<' -> (
        match scan_iri c with
        | Error _ as e -> e
        | Ok dt_term -> (
          let dt_iri = Term.lexical dt_term in
          match datatype_of_iri dt_iri with
          | Some datatype -> Ok (Term.Literal { lex; datatype })
          | None -> Ok (Term.Literal { lex; datatype = Term.Dstring })))
      | _ -> error c "expected datatype IRI after ^^")
    | Some '@' ->
      (* Language tag: keep the lexical form, drop the tag. *)
      let rec skip i =
        if
          i < String.length c.line
          && c.line.[i] <> ' ' && c.line.[i] <> '\t'
        then skip (i + 1)
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

let parse_line_located ~line:l_line line =
  let trimmed = String.trim line in
  if trimmed = "" || trimmed.[0] = '#' then Ok None
  else
    let located = function
      | Ok _ as ok -> ok
      | Error (l_col, l_reason) -> Error { l_line; l_col; l_reason }
    in
    let c = { line = trimmed; pos = 0 } in
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

let parse_string_mode mode s =
  let budget = budget_of_mode mode in
  let lines = String.split_on_char '\n' s in
  let rec go n acc quar nquar = function
    | [] -> Ok { triples = List.rev acc; quarantined = List.rev quar }
    | line :: rest -> (
      match parse_line_located ~line:n line with
      | Ok None -> go (n + 1) acc quar nquar rest
      | Ok (Some t) -> go (n + 1) (t :: acc) quar nquar rest
      | Error e ->
        if nquar >= budget then Error e
        else
          go (n + 1) acc
            ({ q_text = String.trim line; q_error = e } :: quar)
            (nquar + 1) rest)
  in
  go 1 [] [] 0 lines

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
