type 'c field = 'c -> string -> ('c, string) result

let value what of_string set cfg v =
  match of_string v with Some x -> Ok (set cfg x) | None -> Error what

let int set = value "an integer" int_of_string_opt set
let float set = value "a number" float_of_string_opt set

(* Binary size units, largest first: [pp_bytes] picks the first that
   divides a count exactly. *)
let units = [ ('g', 1024 * 1024 * 1024); ('m', 1024 * 1024); ('k', 1024) ]

let size_of_string v =
  let n = String.length v in
  let unit_, digits =
    match
      if n = 0 then None
      else List.assoc_opt (Char.lowercase_ascii v.[n - 1]) units
    with
    | Some u -> (u, String.sub v 0 (n - 1))
    | None -> (1, v)
  in
  match int_of_string_opt digits with
  | Some i when i >= 0 -> Some (i * unit_)
  | _ -> None

let bytes set =
  value "a size (bytes, or with a k/m/g suffix)" size_of_string set

let choice ~expects words set =
  value expects (fun v -> List.assoc_opt v words) set

let parse ~flag ?(bare = []) ~check fields default spec =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun msg -> Error (flag ^ ": " ^ msg)) fmt in
  let pair cfg p =
    match String.index_opt p '=' with
    | None -> (
      match List.assoc_opt p bare with
      | Some set -> Ok (set cfg)
      | None -> fail "expected key=value, got %S" p)
    | Some i -> (
      let key = String.trim (String.sub p 0 i) in
      let v = String.trim (String.sub p (i + 1) (String.length p - i - 1)) in
      match List.assoc_opt key fields with
      | None -> fail "unknown key %S" key
      | Some field -> (
        match field cfg v with
        | Ok cfg -> Ok cfg
        | Error what -> fail "%s expects %s, got %S" key what v))
  in
  let* cfg =
    List.fold_left
      (fun acc p ->
        let* cfg = acc in
        match String.trim p with "" -> Ok cfg | p -> pair cfg p)
      (Ok default)
      (String.split_on_char ',' spec)
  in
  match check cfg with
  | cfg -> Ok cfg
  | exception Invalid_argument msg -> Error msg

let pp_bytes ppf b =
  match List.find_opt (fun (_, u) -> b >= u && b mod u = 0) units with
  | Some (c, u) -> Fmt.pf ppf "%d%c" (b / u) c
  | None -> Fmt.pf ppf "%d" b
