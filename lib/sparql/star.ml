open Rapida_rdf

type t = {
  id : int;
  subject : Ast.node;
  patterns : Ast.triple_pattern list;
}

let sort_terms = List.sort_uniq Term.compare

let props star =
  List.filter_map
    (fun (tp : Ast.triple_pattern) ->
      match tp.tp_p with Ast.Nterm t -> Some t | Ast.Nvar _ -> None)
    star.patterns
  |> sort_terms

let type_objects star =
  List.filter_map
    (fun (tp : Ast.triple_pattern) ->
      match tp.tp_p, tp.tp_o with
      | Ast.Nterm p, Ast.Nterm o when Term.equal p Namespace.rdf_type -> Some o
      | _ -> None)
    star.patterns
  |> sort_terms

let node_equal a b =
  match a, b with
  | Ast.Nvar x, Ast.Nvar y -> String.equal x y
  | Ast.Nterm x, Ast.Nterm y -> Term.equal x y
  | Ast.Nvar _, Ast.Nterm _ | Ast.Nterm _, Ast.Nvar _ -> false

let decompose bgp =
  let rec go acc = function
    | [] -> acc
    | (tp : Ast.triple_pattern) :: rest -> (
      match List.find_opt (fun s -> node_equal s.subject tp.tp_s) acc with
      | Some star ->
        let updated = { star with patterns = star.patterns @ [ tp ] } in
        let acc =
          List.map (fun s -> if s.id = star.id then updated else s) acc
        in
        go acc rest
      | None ->
        let star =
          { id = List.length acc; subject = tp.tp_s; patterns = [ tp ] }
        in
        go (acc @ [ star ]) rest)
  in
  go [] bgp

type role = Subject | Property | Object

type endpoint = { star : int; role : role; prop : Term.t option }

type edge = { var : Ast.var; left : endpoint; right : endpoint }

(* The occurrence of variable [v] in [star], if any. The subject role wins
   over object/property occurrences: a star is identified by its root. *)
let occurrence star v : endpoint option =
  let is_v = function Ast.Nvar x -> String.equal x v | Ast.Nterm _ -> false in
  if is_v star.subject then Some { star = star.id; role = Subject; prop = None }
  else
    let rec find = function
      | [] -> None
      | (tp : Ast.triple_pattern) :: rest ->
        if is_v tp.tp_o then
          let prop =
            match tp.tp_p with Ast.Nterm t -> Some t | Ast.Nvar _ -> None
          in
          Some { star = star.id; role = Object; prop }
        else if is_v tp.tp_p then Some { star = star.id; role = Property; prop = None }
        else find rest
    in
    find star.patterns

let star_vars star =
  let node_var = function Ast.Nvar v -> [ v ] | Ast.Nterm _ -> [] in
  List.concat_map
    (fun (tp : Ast.triple_pattern) ->
      node_var tp.tp_s @ node_var tp.tp_p @ node_var tp.tp_o)
    star.patterns
  |> List.sort_uniq String.compare

let edges stars =
  let pairs = ref [] in
  let n = List.length stars in
  let arr = Array.of_list stars in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let shared =
        List.filter
          (fun v -> List.mem v (star_vars arr.(j)))
          (star_vars arr.(i))
      in
      List.iter
        (fun v ->
          match occurrence arr.(i) v, occurrence arr.(j) v with
          | Some left, Some right -> pairs := { var = v; left; right } :: !pairs
          | _ -> ())
        shared
    done
  done;
  List.rev !pairs

let connected stars edges =
  match stars with
  | [] -> true
  | first :: _ ->
    let reached = Hashtbl.create 8 in
    Hashtbl.add reached first.id ();
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun e ->
          let l = Hashtbl.mem reached e.left.star in
          let r = Hashtbl.mem reached e.right.star in
          if l && not r then begin
            Hashtbl.add reached e.right.star ();
            changed := true
          end
          else if r && not l then begin
            Hashtbl.add reached e.left.star ();
            changed := true
          end)
        edges
    done;
    Hashtbl.length reached = List.length stars

let pp_role ppf = function
  | Subject -> Fmt.string ppf "subject"
  | Property -> Fmt.string ppf "property"
  | Object -> Fmt.string ppf "object"

let pp_endpoint ppf e =
  Fmt.pf ppf "star%d:%a%a" e.star pp_role e.role
    (Fmt.option (fun ppf p -> Fmt.pf ppf "(%a)" Term.pp p))
    e.prop

let pp_edge ppf e =
  Fmt.pf ppf "?%s: %a -- %a" e.var pp_endpoint e.left pp_endpoint e.right

let pp ppf star =
  Fmt.pf ppf "@[<v 2>Stp%d root=%a@ %a@]" star.id
    (fun ppf -> function
      | Ast.Nvar v -> Fmt.pf ppf "?%s" v
      | Ast.Nterm t -> Term.pp ppf t)
    star.subject
    (Fmt.list ~sep:Fmt.cut Ast.pp_triple_pattern)
    star.patterns
