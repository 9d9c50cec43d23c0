type t = { parts : (int * Triplegroup.t) list; size : int }

let empty = { parts = []; size = 4 }

let of_tg i tg = { parts = [ (i, tg) ]; size = 4 + Triplegroup.size_bytes tg }

let join a b =
  List.iter
    (fun (i, _) ->
      if List.mem_assoc i b.parts then
        invalid_arg "Joined.join: duplicate star index")
    a.parts;
  {
    parts = List.sort (fun (i, _) (j, _) -> Int.compare i j) (a.parts @ b.parts);
    (* Each side counts the 4-byte header once; the result keeps one. *)
    size = a.size + b.size - 4;
  }

let part t i = List.assoc_opt i t.parts

let has_prop t p = List.exists (fun (_, tg) -> Triplegroup.has_prop tg p) t.parts

let size_bytes t = t.size

let pp ppf t =
  Fmt.pf ppf "@[<v 2>joined:@ %a@]"
    (Fmt.list ~sep:Fmt.cut (fun ppf (i, tg) ->
         Fmt.pf ppf "[star %d] %a" i Triplegroup.pp tg))
    t.parts
